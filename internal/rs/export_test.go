package rs

// SegmentEntry returns slot j of segment i (j = 0 most recent). Empty
// slots return a zero Entry with ok=false. It walks the unfiltered ring
// per call.
func (s *Segmented) SegmentEntry(i, j int) (Entry, bool) {
	if j < 0 || j >= s.SegmentLen(i) {
		return Entry{}, false
	}
	var buf [64]Entry
	return s.walk(i, buf[:0])[j], true
}
