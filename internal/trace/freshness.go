package trace

import (
	"fmt"
	"sort"
	"strings"
)

// PredicateMargin reports, for one consistency-class predicate, how many
// cached units it was checked against and the tightest slack (seconds)
// any passing unit had before the predicate would have failed.
type PredicateMargin struct {
	Pred   string  `json:"pred"`
	Checks int     `json:"checks"`
	MinSec float64 `json:"minSec"`
}

// FreshnessReport is the per-answer staleness ledger a serving site
// attaches to its span: the cache/owned/fetched provenance of the bytes
// in the answer, the age distribution of the cached local-information
// units used, and the margins by which consistency predicates held.
// Reports travel inside spans, so their JSON shape is wire contract.
type FreshnessReport struct {
	// Units and bytes of local information that joined the answer from
	// this site's store, split by residency.
	OwnedUnits  int   `json:"ownedUnits,omitempty"`
	CachedUnits int   `json:"cachedUnits,omitempty"`
	OwnedBytes  int64 `json:"ownedBytes,omitempty"`
	CachedBytes int64 `json:"cachedBytes,omitempty"`
	// FetchedBytes counts answer fragment bytes that arrived from other
	// sites during this hop's gather rounds.
	FetchedBytes int64 `json:"fetchedBytes,omitempty"`

	// Age statistics over the cached units that carry timestamps.
	AgedUnits  int     `json:"agedUnits,omitempty"`
	MeanAgeSec float64 `json:"meanAgeSec,omitempty"`
	MaxAgeSec  float64 `json:"maxAgeSec,omitempty"`

	// MarginChecks counts consistency-predicate evaluations against
	// cached units (including predicates whose margin is not measurable);
	// Margins carries the per-predicate minima, sorted by predicate text.
	MarginChecks int               `json:"marginChecks,omitempty"`
	Margins      []PredicateMargin `json:"margins,omitempty"`
}

// Merge folds o into f, preserving the aggregate semantics: unit, byte
// and check counts add; max ages take the maximum; mean ages combine
// weighted by aged-unit count; per-predicate margins take the minimum.
func (f *FreshnessReport) Merge(o *FreshnessReport) {
	if o == nil {
		return
	}
	sum := f.MeanAgeSec*float64(f.AgedUnits) + o.MeanAgeSec*float64(o.AgedUnits)
	f.OwnedUnits += o.OwnedUnits
	f.CachedUnits += o.CachedUnits
	f.OwnedBytes += o.OwnedBytes
	f.CachedBytes += o.CachedBytes
	f.FetchedBytes += o.FetchedBytes
	f.AgedUnits += o.AgedUnits
	if f.AgedUnits > 0 {
		f.MeanAgeSec = sum / float64(f.AgedUnits)
	}
	if o.MaxAgeSec > f.MaxAgeSec {
		f.MaxAgeSec = o.MaxAgeSec
	}
	f.MarginChecks += o.MarginChecks
	for _, om := range o.Margins {
		i := sort.Search(len(f.Margins), func(i int) bool { return f.Margins[i].Pred >= om.Pred })
		if i < len(f.Margins) && f.Margins[i].Pred == om.Pred {
			f.Margins[i].Checks += om.Checks
			if om.MinSec < f.Margins[i].MinSec {
				f.Margins[i].MinSec = om.MinSec
			}
			continue
		}
		f.Margins = append(f.Margins, PredicateMargin{})
		copy(f.Margins[i+1:], f.Margins[i:])
		f.Margins[i] = om
	}
}

// MinMargin returns the tightest margin across all predicates; ok is
// false when no margin was measured.
func (f *FreshnessReport) MinMargin() (float64, bool) {
	ok := false
	min := 0.0
	for _, m := range f.Margins {
		if !ok || m.MinSec < min {
			min = m.MinSec
			ok = true
		}
	}
	return min, ok
}

// Summary renders the report as a compact single line for trace output,
// e.g. "cached=3 owned=2 max-age=12.0s margin>=18.0s bytes c/o/f=412/2310/96".
// It returns "" for a report with nothing to say.
func (f *FreshnessReport) Summary() string {
	if f == nil {
		return ""
	}
	var parts []string
	if f.CachedUnits > 0 || f.OwnedUnits > 0 {
		parts = append(parts, fmt.Sprintf("cached=%d owned=%d", f.CachedUnits, f.OwnedUnits))
	}
	if f.AgedUnits > 0 {
		parts = append(parts, fmt.Sprintf("max-age=%.1fs", f.MaxAgeSec))
	}
	if m, ok := f.MinMargin(); ok {
		parts = append(parts, fmt.Sprintf("margin>=%.1fs", m))
	}
	if f.CachedBytes > 0 || f.OwnedBytes > 0 || f.FetchedBytes > 0 {
		parts = append(parts, fmt.Sprintf("bytes c/o/f=%d/%d/%d", f.CachedBytes, f.OwnedBytes, f.FetchedBytes))
	}
	return strings.Join(parts, " ")
}

// AggregateFreshness rolls every hop's report in the span tree into one
// query-level view — what the complete answer was assembled from across
// all sites. It returns nil when no hop carried a report.
func AggregateFreshness(root *Span) *FreshnessReport {
	var out *FreshnessReport
	root.Walk(func(sp *Span) {
		if sp.Freshness == nil {
			return
		}
		if out == nil {
			out = &FreshnessReport{}
		}
		out.Merge(sp.Freshness)
	})
	return out
}
