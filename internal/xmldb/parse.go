package xmldb

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads an XML document from r into a Node tree; see ParseString.
func Parse(r io.Reader) (*Node, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmldb: parse: %w", err)
	}
	return ParseString(string(b))
}

// ParseString parses an XML document into a Node tree in one pass over the
// string. It reads XML 1.0 in UTF-8: elements, attributes in single or
// double quotes, text, CDATA sections, the five predefined entities and
// numeric character references. Comments, processing instructions, the XML
// declaration and <!DOCTYPE ...> are skipped; namespace prefixes are
// stripped and xmlns declarations dropped. Each run of character data is
// trimmed of white space and the runs of one element are concatenated into
// Node.Text; \r\n and \r read as \n; when an attribute repeats, the last
// value wins in the first one's place.
//
// Anything else is an error: a mismatched or stray end tag, a second root,
// an empty or unterminated document, an entity other than those above, a
// '<' or no quotes in an attribute value, "]]>" in text, invalid UTF-8 or a
// character outside XML's range, a version other than 1.0 or an encoding
// other than UTF-8.
//
// No string in the tree shares memory with s: values are copied, and names
// are copied once each per parse.
func ParseString(s string) (*Node, error) {
	p := parser{s: s}
	p.stack = p.stackArr[:0]
	p.kids = p.kidsArr[:0]
	p.attrs = p.attrsArr[:0]
	for p.pos < len(s) {
		var err error
		switch {
		case s[p.pos] != '<':
			end := strings.IndexByte(s[p.pos:], '<')
			if end < 0 {
				end = len(s) - p.pos
			}
			err = p.text(s[p.pos:p.pos+end], inText)
			p.pos += end
		case p.pos+1 == len(s):
			err = p.eof()
		case s[p.pos+1] == '/':
			p.pos += 2
			err = p.endTag()
		case s[p.pos+1] == '?':
			p.pos += 2
			err = p.procInst()
		case s[p.pos+1] == '!':
			p.pos += 2
			err = p.declaration()
		default:
			p.pos++
			err = p.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if p.root == nil {
		return nil, p.errorf("empty document")
	}
	if len(p.stack) > 0 {
		return nil, p.errorf("unterminated element <%s>", p.stack[len(p.stack)-1].tag)
	}
	return p.root, nil
}

// MustParse parses the document and panics on error. It is intended for
// tests and for static documents compiled into examples.
func MustParse(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Byte classes. The in* flags mark the bytes that need more than a copy in
// the three kinds of character data.
const (
	isNameByte  = 1 << iota // may appear in a name; runes above ASCII are checked afterwards
	isNameStart             // ASCII that may start a name
	inText                  // in a text run: & > and what CDATA has
	inAttr                  // in an attribute value: & < and what CDATA has
	inCDATA                 // in a CDATA section: \r, control characters, bytes above ASCII
)

var byteFlags = func() (t [256]uint8) {
	for b := 0; b < 256; b++ {
		switch {
		case b >= utf8.RuneSelf:
			t[b] = isNameByte | inText | inAttr | inCDATA
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', b == '_', b == ':':
			t[b] = isNameByte | isNameStart
		case '0' <= b && b <= '9', b == '.', b == '-':
			t[b] = isNameByte
		case b < ' ' && b != '\t' && b != '\n':
			t[b] = inText | inAttr | inCDATA
		}
	}
	t['&'] = inText | inAttr
	t['>'] = inText
	t['<'] = inAttr
	return t
}()

// frame is an element whose end tag has not been read yet.
type frame struct {
	node *Node
	tag  string // the name as written, prefix included: what the end tag must repeat
	kids int    // where this element's children start in parser.kids
}

type parser struct {
	s    string
	pos  int
	root *Node

	stack []frame
	// kids holds the children read so far of every open element, innermost
	// last, so an element's child slice is allocated once, at its size.
	kids  []*Node
	attrs []Attr            // the attributes of the start tag being read
	buf   []byte            // character data being decoded
	names map[string]string // one copy of each element and attribute name

	// The slices start on these arrays, so a fragment of ordinary depth and
	// fan-out is parsed without allocating anything that is not in the tree.
	stackArr [16]frame
	kidsArr  [32]*Node
	attrsArr [8]Attr
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("xmldb: parse: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) eof() error {
	p.pos = len(p.s)
	return p.errorf("unexpected end of document")
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// name reads the XML name at p.pos; ok is false when none starts there.
func (p *parser) name() (name string, ok bool) {
	i := p.pos
	var seen byte
	for i < len(p.s) && byteFlags[p.s[i]]&isNameByte != 0 {
		seen |= p.s[i]
		i++
	}
	name = p.s[p.pos:i]
	if name == "" || name[0] < utf8.RuneSelf && byteFlags[name[0]]&isNameStart == 0 {
		return "", false
	}
	if seen >= utf8.RuneSelf {
		// Invalid UTF-8 ranges as U+FFFD, which is in neither table.
		for j, r := range name {
			if r >= utf8.RuneSelf && !unicode.Is(nameStart, r) && (j == 0 || !unicode.Is(nameRest, r)) {
				return "", false
			}
		}
	}
	p.pos = i
	return name, true
}

// qname reads an element or attribute name and splits off its namespace
// prefix. A colon first or last belongs to the local part; two colons are
// an error.
func (p *parser) qname() (name, prefix, local string, ok bool) {
	name, ok = p.name()
	if !ok {
		return "", "", "", false
	}
	c := strings.IndexByte(name, ':')
	switch {
	case c < 0:
		return name, "", name, true
	case strings.IndexByte(name[c+1:], ':') >= 0:
		return "", "", "", false
	case c == 0 || c == len(name)-1:
		return name, "", name, true
	}
	return name, name[:c], name[c+1:], true
}

func (p *parser) intern(name string) string {
	if v, ok := p.names[name]; ok {
		return v
	}
	if p.names == nil {
		p.names = make(map[string]string)
	}
	v := strings.Clone(name)
	p.names[v] = v
	return v
}

func (p *parser) startTag() error {
	s := p.s
	tag, _, local, ok := p.qname()
	if !ok {
		return p.errorf("expected an element name after <")
	}
	attrs := p.attrs[:0]
	selfClosing := false
	for {
		p.skipSpace()
		if p.pos == len(s) {
			return p.eof()
		}
		if s[p.pos] == '>' {
			p.pos++
			break
		}
		if s[p.pos] == '/' {
			if p.pos+1 == len(s) {
				return p.eof()
			}
			if s[p.pos+1] != '>' {
				return p.errorf("expected /> in element <%s>", tag)
			}
			p.pos += 2
			selfClosing = true
			break
		}
		_, prefix, attr, ok := p.qname()
		if !ok {
			return p.errorf("expected an attribute name in element <%s>", tag)
		}
		p.skipSpace()
		if p.pos == len(s) {
			return p.eof()
		}
		if s[p.pos] != '=' {
			return p.errorf("attribute %s without = in element <%s>", attr, tag)
		}
		p.pos++
		p.skipSpace()
		if p.pos == len(s) {
			return p.eof()
		}
		quote := s[p.pos]
		if quote != '"' && quote != '\'' {
			return p.errorf("unquoted value for attribute %s in element <%s>", attr, tag)
		}
		p.pos++
		end := strings.IndexByte(s[p.pos:], quote)
		if end < 0 {
			return p.eof()
		}
		value, err := p.chars(s[p.pos:p.pos+end], inAttr)
		if err != nil {
			return err
		}
		p.pos += end + 1
		if prefix == "xmlns" || attr == "xmlns" {
			continue
		}
		attr = p.intern(attr)
		repeated := false
		for i := range attrs {
			if attrs[i].Name == attr {
				attrs[i].Value = value
				repeated = true
				break
			}
		}
		if !repeated {
			attrs = append(attrs, Attr{Name: attr, Value: value})
		}
	}
	p.attrs = attrs

	n := &Node{Name: p.intern(local)}
	if len(attrs) > 0 {
		n.Attrs = append(make([]Attr, 0, len(attrs)), attrs...)
	}
	if len(p.stack) > 0 {
		n.Parent = p.stack[len(p.stack)-1].node
	} else if p.root != nil {
		return p.errorf("second root element <%s>", tag)
	} else {
		p.root = n
	}
	if selfClosing {
		p.closed(n)
	} else {
		p.stack = append(p.stack, frame{node: n, tag: tag, kids: len(p.kids)})
	}
	return nil
}

// closed hands a finished element to its parent's pending children.
func (p *parser) closed(n *Node) {
	if len(p.stack) > 0 {
		p.kids = append(p.kids, n)
	}
}

func (p *parser) endTag() error {
	tag, _, _, ok := p.qname()
	if !ok {
		return p.errorf("expected an element name after </")
	}
	p.skipSpace()
	if p.pos == len(p.s) {
		return p.eof()
	}
	if p.s[p.pos] != '>' {
		return p.errorf("invalid characters between </%s and >", tag)
	}
	p.pos++
	if len(p.stack) == 0 {
		return p.errorf("unexpected end tag </%s>", tag)
	}
	f := p.stack[len(p.stack)-1]
	if f.tag != tag {
		return p.errorf("element <%s> closed by </%s>", f.tag, tag)
	}
	p.stack = p.stack[:len(p.stack)-1]
	if kids := p.kids[f.kids:]; len(kids) > 0 {
		f.node.Children = append(make([]*Node, 0, len(kids)), kids...)
		p.kids = p.kids[:f.kids]
	}
	p.closed(f.node)
	return nil
}

// procInst skips a processing instruction; p.pos is after "<?". The XML
// declaration is one, and may only say version 1.0 and UTF-8.
func (p *parser) procInst() error {
	target, ok := p.name()
	if !ok {
		return p.errorf("expected a target name after <?")
	}
	p.skipSpace()
	end := strings.Index(p.s[p.pos:], "?>")
	if end < 0 {
		return p.eof()
	}
	content := p.s[p.pos : p.pos+end]
	p.pos += end + 2
	if target == "xml" {
		if v := pseudoAttr(content, "version="); v != "" && v != "1.0" {
			return p.errorf("unsupported XML version %q", v)
		}
		if e := pseudoAttr(content, "encoding="); e != "" && !strings.EqualFold(e, "utf-8") {
			return p.errorf("unsupported encoding %q", e)
		}
	}
	return nil
}

// pseudoAttr finds the quoted value that follows key (a name and its '=')
// in an XML declaration, "" when there is none.
func pseudoAttr(content, key string) string {
	for {
		k := strings.Index(content, key)
		if k < 0 || k+len(key) == len(content) {
			return ""
		}
		quote := content[k+len(key)]
		content = content[k+len(key)+1:]
		if quote == '"' || quote == '\'' {
			end := strings.IndexByte(content, quote)
			if end < 0 {
				return ""
			}
			return content[:end]
		}
	}
}

// declaration reads what "<!" opens: a comment, a CDATA section or a
// directive such as <!DOCTYPE ...>. p.pos is after "<!".
func (p *parser) declaration() error {
	s := p.s
	switch {
	case p.pos == len(s):
		return p.eof()
	case s[p.pos] == '-':
		if p.pos+1 == len(s) {
			return p.eof()
		}
		if s[p.pos+1] != '-' {
			return p.errorf("invalid sequence <!- not part of <!--")
		}
		p.pos += 2
		// The first "--" must be the one that closes the comment.
		end := strings.Index(s[p.pos:], "--")
		if end < 0 || p.pos+end+2 == len(s) {
			return p.eof()
		}
		if s[p.pos+end+2] != '>' {
			return p.errorf(`"--" inside a comment`)
		}
		p.pos += end + 3
		return nil
	case s[p.pos] == '[':
		if !strings.HasPrefix(s[p.pos+1:], "CDATA[") {
			return p.errorf("invalid <![ sequence")
		}
		p.pos += len("[CDATA[")
		end := strings.Index(s[p.pos:], "]]>")
		if end < 0 {
			return p.eof()
		}
		err := p.text(s[p.pos:p.pos+end], inCDATA)
		p.pos += end + 3
		return err
	}
	// A directive ends at the first '>' outside quotes, nested <...> and
	// comments. Its first byte is never markup.
	var quote byte
	depth := 0
	for i := p.pos + 1; i < len(s); i++ {
		switch b := s[i]; {
		case quote != 0:
			if b == quote {
				quote = 0
			}
		case b == '"' || b == '\'':
			quote = b
		case b == '>':
			if depth == 0 {
				p.pos = i + 1
				return nil
			}
			depth--
		case b == '<':
			if !strings.HasPrefix(s[i+1:], "!--") {
				depth++
				break
			}
			end := strings.Index(s[i+4:], "-->")
			if end < 0 {
				return p.eof()
			}
			i += 4 + end + 2
		}
	}
	return p.eof()
}

// text adds one run of character data (a text run or a CDATA section) to
// the innermost open element. Outside the root the run is checked and
// dropped.
func (p *parser) text(raw string, kind uint8) error {
	t, err := p.chars(raw, kind)
	if err != nil || t == "" || len(p.stack) == 0 {
		return err
	}
	p.stack[len(p.stack)-1].node.Text += t
	return nil
}

// chars decodes one run of character data of the given kind (inText, inAttr
// or inCDATA) into a string of its own: entities replaced, line ends
// normalized, every character checked, and all but attribute values
// trimmed.
func (p *parser) chars(raw string, kind uint8) (string, error) {
	buf := p.buf[:0]
	for i := 0; ; {
		j := i
		for j < len(raw) && byteFlags[raw[j]]&kind == 0 {
			j++
		}
		buf = append(buf, raw[i:j]...)
		if j == len(raw) {
			break
		}
		i = j + 1
		switch b := raw[j]; {
		case b == '\r':
			buf = append(buf, '\n')
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		case b == '&':
			r, n := entity(raw[j:])
			if n == 0 {
				return "", p.errorf("invalid character entity")
			}
			buf = utf8.AppendRune(buf, r)
			i = j + n
		case b == '>':
			if j >= 2 && raw[j-2:j] == "]]" {
				return "", p.errorf("unescaped ]]> not in a CDATA section")
			}
			buf = append(buf, b)
		case b == '<':
			return "", p.errorf("unescaped < in an attribute value")
		case b >= utf8.RuneSelf:
			r, n := utf8.DecodeRuneInString(raw[j:])
			if r == utf8.RuneError && n == 1 {
				return "", p.errorf("invalid UTF-8")
			}
			if !inCharRange(r) {
				return "", p.errorf("illegal character code %U", r)
			}
			buf = append(buf, raw[j:j+n]...)
			i = j + n
		default:
			return "", p.errorf("illegal character code %U", rune(b))
		}
	}
	p.buf = buf
	if kind != inAttr {
		buf = bytes.TrimSpace(buf)
	}
	return string(buf), nil
}

var namedEntities = [...]struct {
	ref string
	r   rune
}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&quot;", '"'}, {"&apos;", '\''}}

// entity decodes the reference at the start of s (which begins with '&')
// and returns its character and length, or 0, 0 when it is not one of the
// five predefined entities or a numeric reference to a legal character.
func entity(s string) (rune, int) {
	if !strings.HasPrefix(s, "&#") {
		for _, e := range namedEntities {
			if strings.HasPrefix(s, e.ref) {
				return e.r, len(e.ref)
			}
		}
		return 0, 0
	}
	i, base := 2, rune(10)
	if i < len(s) && s[i] == 'x' {
		i, base = 3, 16
	}
	digits := i
	var r rune
	for ; i < len(s); i++ {
		var d rune
		switch b := s[i]; {
		case '0' <= b && b <= '9':
			d = rune(b - '0')
		case base == 16 && 'a' <= b && b <= 'f':
			d = rune(b-'a') + 10
		case base == 16 && 'A' <= b && b <= 'F':
			d = rune(b-'A') + 10
		default:
			d = -1
		}
		if d < 0 {
			break
		}
		if r <= unicode.MaxRune { // past it, stay past it
			r = r*base + d
		}
	}
	if i == digits || i == len(s) || s[i] != ';' || r > unicode.MaxRune {
		return 0, 0
	}
	if 0xD800 <= r && r <= 0xDFFF {
		r = utf8.RuneError // what a surrogate encodes to
	}
	if !inCharRange(r) {
		return 0, 0
	}
	return r, i + 1
}

// inCharRange reports whether r is in XML 1.0's Char production.
func inCharRange(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		0x20 <= r && r <= 0xD7FF ||
		0xE000 <= r && r <= 0xFFFD ||
		0x10000 <= r && r <= 0x10FFFF
}
