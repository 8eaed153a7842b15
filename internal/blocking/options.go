package blocking

// IndexOptions is the configuration of the blocking layer — the Index
// constructors (BuildIndex, OpenMapped) and the TokenBlocker all
// consume it. Thresholds are *float64 fields: nil selects the package
// default and a set pointer — including Float(0) — is taken literally.
type IndexOptions struct {
	// MinScore is the minimum summed IDF weight for a candidate. Only
	// the TokenBlocker applies it (Index.Query takes the floor per
	// call). nil selects the default 1.0; Float(0) accepts any
	// positive token overlap.
	MinScore *float64
	// StopDocFrac is the stop-token document-frequency fraction:
	// tokens occurring in more than this fraction of the records (and
	// in at least 5 of them) are skipped when scoring. nil selects the
	// default 0.2; Float(0) treats every token above the absolute
	// floor as a stop token; values >= 1 disable the filter.
	StopDocFrac *float64
}

// Float returns a pointer to v — the set-flag form the explicit
// IndexOptions threshold fields take: opts.MinScore = blocking.Float(0)
// requests a literal zero where nil would select the default.
func Float(v float64) *float64 { return &v }

// Defaults the explicit threshold fields select when nil.
const (
	DefaultMinScore    = 1.0
	DefaultStopDocFrac = 0.2
)

// Resolved returns the options with both thresholds set: nil fields
// take the package defaults and negative values clamp to zero.
func (o IndexOptions) Resolved() IndexOptions {
	return IndexOptions{MinScore: Float(o.minScore()), StopDocFrac: Float(o.stopDocFrac())}
}

// minScore resolves the explicit field against its default.
func (o IndexOptions) minScore() float64 {
	if o.MinScore == nil {
		return DefaultMinScore
	}
	if *o.MinScore < 0 {
		return 0
	}
	return *o.MinScore
}

// stopDocFrac resolves the explicit field against its default.
func (o IndexOptions) stopDocFrac() float64 {
	if o.StopDocFrac == nil {
		return DefaultStopDocFrac
	}
	if *o.StopDocFrac < 0 {
		return 0
	}
	return *o.StopDocFrac
}
