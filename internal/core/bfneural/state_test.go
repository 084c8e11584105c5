package bfneural

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"bfbp/internal/predictor/perceptron"
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

func saveBytes(t *testing.T, p *perceptron.Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFailedLoadLeavesPredictorUntouched feeds a BF-Neural a donor's
// snapshot with one bad section at a time, the sections decoded after
// the BST and weight banks included, and requires each load to fail
// with a typed error. Some bad sections are well formed but hold a
// filtered history no run produces: a recency-stack counter that is not
// the history's, a hashed pc of 2^14, an entry pushed after the counter
// or newer than the one above it. The predictor must then save the same bytes and
// predict the same stream as a twin that never saw the failed loads.
func TestFailedLoadLeavesPredictorUntouched(t *testing.T) {
	tr := diffTrace(t, 9000)
	for _, cfg := range []Config{Default64KB(), Ablation(ModeBiasFreeGHR)} {
		run := func(n int) *perceptron.Predictor {
			p := New(cfg)
			for _, rec := range tr[:n] {
				p.Predict(rec.PC)
				p.Update(rec.PC, rec.Taken, rec.Target)
			}
			return p
		}
		const seq = 6000 // the donor's history counter
		p, twin, donor := run(3000), run(3000), run(seq)
		img := saveBytes(t, donor)
		// entries writes a filtered history of (pc, seq) pairs, most
		// recent first, in the rstack (wide) or filt layout.
		entries := func(e *state.Enc, wide bool, es ...uint64) {
			e.U32(uint32(len(es) / 2))
			for i := 0; i < len(es); i += 2 {
				if wide {
					e.U64(es[i])
				} else {
					e.U32(uint32(es[i]))
				}
				e.Bool(true)
				e.U64(es[i+1])
			}
		}
		tested := 0
		for _, tc := range []struct {
			section string
			fill    func(*state.Enc)
		}{
			{"wb", func(e *state.Enc) { e.I8s(make([]int8, 3)) }},
			{"history", func(e *state.Enc) { e.U64(1) }},
			{"rstack", func(e *state.Enc) { e.U64(1); e.U32(1 << 20) }},
			{"rstack", func(e *state.Enc) { e.U64(seq + 1); entries(e, true) }},
			{"rstack", func(e *state.Enc) { e.U64(seq); entries(e, true, 1<<hpcBits, seq) }},
			{"filt", func(e *state.Enc) { e.U32(uint32(cfg.RSDepth + 1)) }},
			{"filt", func(e *state.Enc) { entries(e, false, 1<<hpcBits, seq) }},
			{"filt", func(e *state.Enc) { entries(e, false, 5, seq+1) }},
			{"filt", func(e *state.Enc) { entries(e, false, 5, seq-9, 6, seq) }},
			{"misc", func(e *state.Enc) { e.I32(1) }},
			{"loop", func(e *state.Enc) { e.U8(1) }},
			{"bst", func(e *state.Enc) { e.String("fsm2"); e.Bytes([]byte{0xFF}) }},
		} {
			snap, err := state.Read(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(snap.Sections(), tc.section) {
				continue // not a section of this mode
			}
			tested++
			err = p.LoadState(bytes.NewReader(replaceSection(t, img, tc.section, tc.fill)))
			if err == nil {
				t.Fatalf("mode %d, bad %s section: load succeeded", cfg.Mode, tc.section)
			}
			if !errors.Is(err, state.ErrCorrupt) && !errors.Is(err, state.ErrTruncated) {
				t.Fatalf("mode %d, bad %s section: untyped error %v", cfg.Mode, tc.section, err)
			}
		}
		if tested < 8 {
			t.Fatalf("mode %d: only %d sections corrupted", cfg.Mode, tested)
		}
		if !bytes.Equal(saveBytes(t, p), saveBytes(t, twin)) {
			t.Fatalf("mode %d: failed loads changed the predictor", cfg.Mode)
		}
		for i, rec := range tr[3000:] {
			if got, want := p.Predict(rec.PC), twin.Predict(rec.PC); got != want {
				t.Fatalf("mode %d: prediction %d after failed loads is %v, twin %v", cfg.Mode, i, got, want)
			}
			p.Update(rec.PC, rec.Taken, rec.Target)
			twin.Update(rec.PC, rec.Taken, rec.Target)
		}
		if err := p.LoadState(bytes.NewReader(img)); err != nil {
			t.Fatalf("mode %d, donor snapshot: %v", cfg.Mode, err)
		}
		if !bytes.Equal(saveBytes(t, p), img) {
			t.Fatalf("mode %d: loaded predictor does not save the donor's bytes", cfg.Mode)
		}
	}
}

// TestLoadRejectsOutOfRangeWeights feeds a trained BF-Neural a snapshot
// whose Wm or Wrs weights lie outside the 6-bit clamp [-32, 31]. Each
// load must fail with state.ErrCorrupt and leave the predictor saving
// the same bytes.
func TestLoadRejectsOutOfRangeWeights(t *testing.T) {
	tr := diffTrace(t, 3000)
	cfg := Default64KB()
	p := New(cfg)
	for _, rec := range tr {
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
	img := saveBytes(t, p)
	for _, tc := range []struct {
		section string
		n       int
		v       int8
	}{
		{"wm", cfg.WmRows * cfg.RecentUnfiltered, 100},
		{"wm", cfg.WmRows * cfg.RecentUnfiltered, -33},
		{"wrs", cfg.WrsEntries, 32},
	} {
		bad := make([]int8, tc.n)
		for i := range bad {
			bad[i] = tc.v
		}
		err := p.LoadState(bytes.NewReader(replaceSection(t, img, tc.section, func(e *state.Enc) { e.I8s(bad) })))
		if !errors.Is(err, state.ErrCorrupt) {
			t.Fatalf("%s weights of %d: load returned %v, want ErrCorrupt", tc.section, tc.v, err)
		}
		if !bytes.Equal(saveBytes(t, p), img) {
			t.Fatalf("%s weights of %d: failed load changed the predictor", tc.section, tc.v)
		}
	}
}
