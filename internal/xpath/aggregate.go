package xpath

import "fmt"

// AggFunc enumerates the aggregate functions the distributed query layer
// understands at the top level of a query: fn(/location/path). They are the
// XPath 1.0 count() and sum() plus the avg/min/max extensions sensor
// workloads need; all five decompose into the same algebraic partial state
// (count + sum + extrema), which is what lets the gather path push them
// down to the addressed sites.
type AggFunc int

const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggFuncNames = [...]string{"count", "sum", "avg", "min", "max"}

func (f AggFunc) String() string {
	if int(f) < len(aggFuncNames) {
		return aggFuncNames[f]
	}
	return fmt.Sprintf("AggFunc(%d)", int(f))
}

// ParseAggFunc maps a function name to its AggFunc.
func ParseAggFunc(name string) (AggFunc, bool) {
	for i, n := range aggFuncNames {
		if n == name {
			return AggFunc(i), true
		}
	}
	return 0, false
}

// AggregateQuery is a parsed top-level aggregate query fn(path).
type AggregateQuery struct {
	// Fn is the aggregate function.
	Fn AggFunc
	// Path is the inner location path whose matches feed the aggregate.
	Path *Path
	// Source is the original query text.
	Source string
}

// InnerSource renders the inner location path as query text.
func (q *AggregateQuery) InnerSource() string { return q.Path.String() }

// ParseAggregate recognizes a top-level aggregate query. ok is false when
// the query is not aggregate-shaped at all — a plain location path, a
// union, an unrecognized function, or something that does not even parse —
// in which case the caller should treat it as an ordinary query and let the
// normal path report any error. A non-nil error means the query is
// aggregate-shaped but uses an unsupported form (wrong arity, non-path
// argument, nested aggregate, relative path).
func ParseAggregate(query string) (*AggregateQuery, bool, error) {
	expr, err := Parse(query)
	if err != nil {
		return nil, false, nil
	}
	return AggregateOf(expr, query)
}

// AggregateOf is ParseAggregate for a caller that has already parsed the
// query text into expr.
func AggregateOf(expr Expr, query string) (*AggregateQuery, bool, error) {
	call, isCall := expr.(*Call)
	if !isCall {
		return nil, false, nil
	}
	fn, known := ParseAggFunc(call.Name)
	if !known {
		return nil, false, nil
	}
	if len(call.Args) != 1 {
		return nil, true, fmt.Errorf("xpath: aggregate %s() takes exactly one location-path argument, got %d", call.Name, len(call.Args))
	}
	p, isPath := call.Args[0].(*Path)
	if !isPath {
		if inner, ok := call.Args[0].(*Call); ok {
			if _, nested := ParseAggFunc(inner.Name); nested {
				return nil, true, fmt.Errorf("xpath: nested aggregate %s(%s(...)) is not supported", call.Name, inner.Name)
			}
		}
		return nil, true, fmt.Errorf("xpath: aggregate %s() argument must be a location path (unions and expressions are not supported)", call.Name)
	}
	if !p.Absolute {
		return nil, true, fmt.Errorf("xpath: aggregate %s() argument must be an absolute location path (it addresses the logical document root)", call.Name)
	}
	return &AggregateQuery{Fn: fn, Path: p, Source: query}, true, nil
}
