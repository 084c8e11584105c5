package bfgehl

import (
	"bytes"
	"errors"
	"testing"

	"bfbp/internal/bst"
	"bfbp/internal/predictor/gehl"
	"bfbp/internal/state"
)

// replaceSection re-encodes snapshot img with the named section's
// payload written by fill instead of the original.
func replaceSection(t *testing.T, img []byte, name string, fill func(*state.Enc)) []byte {
	t.Helper()
	snap, err := state.Read(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	out := state.New(snap.Predictor, snap.ConfigHash)
	for _, sec := range snap.Sections() {
		e := out.Section(sec)
		if sec == name {
			fill(e)
			continue
		}
		d := snap.Dec(sec)
		for d.Remaining() > 0 {
			e.U8(d.U8())
		}
	}
	var buf bytes.Buffer
	if _, err := out.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func saveBytes(t *testing.T, p *gehl.Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFailedLoadLeavesPredictorUntouched feeds a BF-GEHL a donor's
// snapshot with one crafted bad section at a time and requires each
// load to fail with the predictor's SaveState bytes unchanged.
func TestFailedLoadLeavesPredictorUntouched(t *testing.T) {
	tr := diffTrace(t, 6000)
	run := func(n int) *gehl.Predictor {
		p := New(Default64KB())
		for _, rec := range tr[:n] {
			p.Predict(rec.PC)
			p.Update(rec.PC, rec.Taken, rec.Target)
		}
		return p
	}
	p, donor := run(3000), run(6000)
	img := saveBytes(t, donor)
	before := saveBytes(t, p)
	// Every BST state valid but the last, so a load that writes as it
	// validates is caught.
	badBST := bytes.Repeat([]byte{byte(bst.NonBiased)}, 8192)
	badBST[len(badBST)-1] = 0xFF
	for _, tc := range []struct {
		section string
		fill    func(*state.Enc)
	}{
		{"misc", func(e *state.Enc) { e.I32(1) }},
		{"history", func(e *state.Enc) { e.U64(1) }},
		{"bst", func(e *state.Enc) { e.String("fsm2"); e.Bytes(badBST) }},
		{"tables", func(e *state.Enc) { e.U32(8); e.I8s(make([]int8, 3)) }},
	} {
		err := p.LoadState(bytes.NewReader(replaceSection(t, img, tc.section, tc.fill)))
		if err == nil {
			t.Fatalf("bad %s section: load succeeded", tc.section)
		}
		if !errors.Is(err, state.ErrCorrupt) && !errors.Is(err, state.ErrTruncated) {
			t.Fatalf("bad %s section: untyped error %v", tc.section, err)
		}
		if !bytes.Equal(saveBytes(t, p), before) {
			t.Fatalf("bad %s section: failed load changed the predictor", tc.section)
		}
	}
	if err := p.LoadState(bytes.NewReader(img)); err != nil {
		t.Fatalf("donor snapshot: %v", err)
	}
	if !bytes.Equal(saveBytes(t, p), img) {
		t.Fatal("loaded predictor does not save the donor's bytes")
	}
}
