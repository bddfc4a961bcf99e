package xpath

import "strings"

// Query shapes. Queries of one workload differ mostly in the ids they name:
// every type-1 QW-Mix query is the same path with different @id literals. A
// query's shape is its text with the value of each id slot cut out, where an
// id slot is a string literal compared for equality with @id (@id = 'x' or
// 'x' = @id, any spacing, either quote). Every other literal stays in the
// shape, so two queries share a shape exactly when they differ only in their
// id values. A site compiles one template per shape (ParseTemplate) and binds
// each query's slot values to it, instead of compiling each text.
//
// Shape finds the slots by scanning the text, without a parse. The scan looks
// only at the characters next to a literal's quotes, which lie outside every
// literal, so two texts with one shape tokenize alike except for the values
// of their slots, and ParseTemplate of either yields the same template.

// slotSpan is the byte range of one slot's value in the query text, between
// its quotes.
type slotSpan struct{ lo, hi int }

// scanSlots appends the span of every id slot in src to buf, in text order.
func scanSlots(src string, buf []slotSpan) []slotSpan {
	for i := 0; i < len(src); i++ {
		q := src[i]
		if q != '\'' && q != '"' {
			continue
		}
		end := strings.IndexByte(src[i+1:], q)
		if end < 0 {
			return buf // unterminated literal: the parse reports it
		}
		end += i + 1
		if idEqualityBefore(src, i) || idEqualityAfter(src, end+1) {
			buf = append(buf, slotSpan{i + 1, end})
		}
		i = end
	}
	return buf
}

// idEqualityBefore reports whether the literal opening at q is preceded by
// "@id =".
func idEqualityBefore(src string, q int) bool {
	j := skipSpaceBack(src, q-1)
	if j < 0 || src[j] != '=' {
		return false
	}
	if j > 0 && (src[j-1] == '!' || src[j-1] == '<' || src[j-1] == '>') {
		return false
	}
	j = skipSpaceBack(src, j-1)
	if j < 1 || src[j] != 'd' || src[j-1] != 'i' {
		return false
	}
	j = skipSpaceBack(src, j-2)
	return j >= 0 && src[j] == '@'
}

// idEqualityAfter reports whether the text from k on starts with "= @id"
// after the literal that closed just before k.
func idEqualityAfter(src string, k int) bool {
	k = skipSpace(src, k)
	if k >= len(src) || src[k] != '=' {
		return false
	}
	k = skipSpace(src, k+1)
	if k >= len(src) || src[k] != '@' {
		return false
	}
	k = skipSpace(src, k+1)
	if !strings.HasPrefix(src[k:], "id") {
		return false
	}
	k += 2
	return k >= len(src) || (src[k] < 0x80 && !isNameChar(rune(src[k])))
}

func skipSpace(src string, k int) int {
	for k < len(src) && isSpace(src[k]) {
		k++
	}
	return k
}

func skipSpaceBack(src string, j int) int {
	for j >= 0 && isSpace(src[j]) {
		j--
	}
	return j
}

// Shape returns the shape of the query text src and the values of its id
// slots in text order, as substrings of src. A text without slots is its
// own shape, and slots is then nil. Shape does not validate src; a text that
// does not parse fails in ParseTemplate.
func Shape(src string) (shape string, slots []string) {
	var stack [16]slotSpan
	spans := scanSlots(src, stack[:0])
	if len(spans) == 0 {
		return src, nil
	}
	slots = make([]string, len(spans))
	n := len(src)
	for i, sp := range spans {
		slots[i] = src[sp.lo:sp.hi]
		n -= sp.hi - sp.lo
	}
	var sb strings.Builder
	sb.Grow(n)
	prev := 0
	for _, sp := range spans {
		sb.WriteString(src[prev:sp.lo])
		prev = sp.hi
	}
	sb.WriteString(src[prev:])
	return sb.String(), slots
}

// ParseTemplate parses src as the template of its shape: the literal of
// every id slot Shape finds becomes a slot (Literal.Slot numbers them from 1
// in text order) and holds no value. Evaluating or printing the template
// needs the slot values of a query of the shape, as Shape returns them.
func ParseTemplate(src string) (Expr, error) { return parse(src, scanSlots(src, nil)) }
