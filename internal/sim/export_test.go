package sim

// Events returns a zero value of every event type, in DESIGN.md table
// order: the journal schema. The doc-drift guards check each kind
// against the table, the span tag, and a producing call site.
func Events() []Event {
	return []Event{
		SuiteStart{}, RunStart{}, RunFinish{}, RunError{}, WindowEvent{},
		ProvenanceEvent{}, ComponentAttribution{}, Storage{}, Checkpoint{},
		TableStats{}, SuiteFinish{},
	}
}

// Merge folds other into s as a subsequent shard of the same logical
// run: counters add, per-PC attributions add site-wise, and windowed
// series concatenate in run order (s's trailing partial window, if any,
// stays a short window rather than being re-bucketed). The resume ≡
// straight-run tests merge the two halves of a split run with it without
// losing TopOffenders or phase data. Window adopts the first non-zero
// size.
//
// When exactly one side collected windowed metrics (the other ran with
// Window = 0), the unwindowed shard's aggregate is folded in as a
// single synthetic window at its position in run order, so the merged
// series still covers the whole run and the invariant
// sum(Windows) == post-warmup totals is preserved. A synthetic
// window's Branches field includes that shard's warmup branches (the
// shard did not record the split); its Mispredicts, Instructions, and
// therefore MPKI are exact.
func (s *Stats) Merge(other Stats) {
	sWindowed := s.Window > 0 || len(s.Windows) > 0
	oWindowed := other.Window > 0 || len(other.Windows) > 0
	if !sWindowed && oWindowed && s.Branches > 0 {
		s.Windows = append(s.Windows, WindowStat{
			Branches:     s.Branches,
			Mispredicts:  s.Mispredicts,
			Instructions: s.Instructions,
		})
	}
	s.Branches += other.Branches
	s.Mispredicts += other.Mispredicts
	s.Instructions += other.Instructions
	if other.perPC != nil {
		if s.perPC == nil {
			s.perPC = make(map[uint64]*pcStat, len(other.perPC))
		}
		for pc, o := range other.perPC {
			st := s.perPC[pc]
			if st == nil {
				st = &pcStat{pc: pc}
				s.perPC[pc] = st
			}
			st.count += o.count
			st.mispreds += o.mispreds
		}
	}
	if s.Window == 0 {
		s.Window = other.Window
	}
	if other.Provenance != nil {
		if s.Provenance == nil {
			s.Provenance = NewProvenanceStats()
		}
		s.Provenance.merge(other.Provenance)
	}
	if sWindowed && !oWindowed && other.Branches > 0 {
		s.Windows = append(s.Windows, WindowStat{
			Branches:     other.Branches,
			Mispredicts:  other.Mispredicts,
			Instructions: other.Instructions,
		})
		return
	}
	s.Windows = append(s.Windows, other.Windows...)
}

// merge folds another shard's aggregate into pv (Stats.Merge support).
func (pv *ProvenanceStats) merge(other *ProvenanceStats) {
	pv.Explained += other.Explained
	for cause, n := range other.Causes {
		pv.Causes[cause] += n
	}
	for name, cs := range other.Components {
		dst := pv.Components[name]
		if dst == nil {
			dst = &ComponentStat{}
			pv.Components[name] = dst
		}
		dst.Predictions += cs.Predictions
		dst.Mispredicts += cs.Mispredicts
	}
	for len(pv.BankHits) < len(other.BankHits) {
		pv.BankHits = append(pv.BankHits, 0)
		pv.BankMisses = append(pv.BankMisses, 0)
	}
	for i, h := range other.BankHits {
		pv.BankHits[i] += h
	}
	for i, m := range other.BankMisses {
		pv.BankMisses[i] += m
	}
	pv.MarginSamples += other.MarginSamples
	for i, n := range other.MarginCounts {
		if i < len(pv.MarginCounts) {
			pv.MarginCounts[i] += n
		}
	}
}
