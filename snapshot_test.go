package bfbp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"bfbp"
	"bfbp/internal/sim"
	"bfbp/internal/state"
)

// saveState serialises p's state, failing the test if the predictor
// does not implement Snapshotter or the save errors.
func saveState(t *testing.T, p bfbp.Predictor) []byte {
	t.Helper()
	snap := bfbp.Capabilities(p).Snapshot
	if snap == nil {
		t.Fatalf("%s does not implement Snapshotter", p.Name())
	}
	var buf bytes.Buffer
	if err := snap.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	return buf.Bytes()
}

// loadState restores img into p, failing the test on error.
func loadState(t *testing.T, p bfbp.Predictor, img []byte) {
	t.Helper()
	snap := bfbp.Capabilities(p).Snapshot
	if snap == nil {
		t.Fatalf("%s does not implement Snapshotter", p.Name())
	}
	if err := snap.LoadState(bytes.NewReader(img)); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
}

// TestEveryPredictorSnapshots is the tentpole's coverage guard: every
// registry predictor must implement the optional Snapshotter interface.
func TestEveryPredictorSnapshots(t *testing.T) {
	for _, info := range bfbp.Predictors() {
		caps := info.Capabilities()
		if caps.Snapshot == nil {
			t.Errorf("%s: no Snapshotter", info.Name)
		}
		found := false
		for _, n := range caps.Names() {
			if n == "snapshot" {
				found = true
			}
		}
		if caps.Snapshot != nil && !found {
			t.Errorf("%s: Capabilities().Names() omits \"snapshot\"", info.Name)
		}
	}
}

// TestBitExactResume asserts the snapshot contract on every registry
// predictor over two workload suites: running N branches, snapshotting,
// restoring into a fresh instance, and running M more must equal a
// straight N+M run — same counters, same per-PC attribution, same
// per-bank useful bits and saturated counters.
func TestBitExactResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry integration test")
	}
	for _, trName := range []string{"SPEC03", "SERV1"} {
		tr := genTrace(t, trName, 6000)
		split := len(tr) / 2
		for _, info := range bfbp.Predictors() {
			info := info
			t.Run(trName+"/"+info.Name, func(t *testing.T) {
				t.Parallel()
				opt := bfbp.Options{PerPC: true}

				sp := info.New()
				straight, err := bfbp.Run(sp, tr.Stream(), opt)
				if err != nil {
					t.Fatal(err)
				}

				first := info.New()
				got, err := bfbp.Run(first, tr[:split].Stream(), opt)
				if err != nil {
					t.Fatal(err)
				}
				img := saveState(t, first)
				resumed := info.New()
				loadState(t, resumed, img)
				second, err := bfbp.Run(resumed, tr[split:].Stream(), opt)
				if err != nil {
					t.Fatal(err)
				}
				got.Branches += second.Branches
				got.Mispredicts += second.Mispredicts
				got.Instructions += second.Instructions

				if got.Branches != straight.Branches ||
					got.Mispredicts != straight.Mispredicts ||
					got.Instructions != straight.Instructions {
					t.Fatalf("split run (%d br, %d misp, %d instr) != straight (%d br, %d misp, %d instr)",
						got.Branches, got.Mispredicts, got.Instructions,
						straight.Branches, straight.Mispredicts, straight.Instructions)
				}
				if got.MPKI() != straight.MPKI() {
					t.Fatalf("split MPKI %v != straight %v", got.MPKI(), straight.MPKI())
				}
				// Each PC's counts over the two halves add up to the
				// straight run's.
				perPC := map[uint64][2]uint64{}
				for _, half := range []bfbp.Stats{got, second} {
					for _, o := range half.TopOffenders(math.MaxInt) {
						c := perPC[o.PC]
						perPC[o.PC] = [2]uint64{c[0] + o.Count, c[1] + o.Mispredicts}
					}
				}
				wantOff := straight.TopOffenders(math.MaxInt)
				if len(wantOff) != len(perPC) {
					t.Fatalf("split run saw %d PCs, straight %d", len(perPC), len(wantOff))
				}
				for _, o := range wantOff {
					if c := perPC[o.PC]; c != [2]uint64{o.Count, o.Mispredicts} {
						t.Fatalf("PC %#x: split %d branches, %d mispredicts != straight %+v", o.PC, c[0], c[1], o)
					}
				}
				a := bfbp.Capabilities(sp).StateProbe.ProbeState().Banks
				b := bfbp.Capabilities(resumed).StateProbe.ProbeState().Banks
				if len(a) != len(b) {
					t.Fatalf("bank count %d != %d", len(b), len(a))
				}
				for i := range a {
					if a[i].UsefulSet != b[i].UsefulSet || a[i].Saturated != b[i].Saturated {
						t.Fatalf("bank %s useful/saturated: split %d/%d != straight %d/%d", a[i].Label(),
							b[i].UsefulSet, b[i].Saturated, a[i].UsefulSet, a[i].Saturated)
					}
				}
			})
		}
	}
}

// TestSnapshotByteStable asserts save→load→save is byte-identical for
// every registry predictor after training.
func TestSnapshotByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry integration test")
	}
	tr := genTrace(t, "SPEC07", 3000)
	for _, info := range bfbp.Predictors() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			p := info.New()
			if _, err := bfbp.Run(p, tr.Stream(), bfbp.Options{}); err != nil {
				t.Fatal(err)
			}
			img1 := saveState(t, p)
			q := info.New()
			loadState(t, q, img1)
			img2 := saveState(t, q)
			if !bytes.Equal(img1, img2) {
				t.Fatalf("save→load→save drifted: %d vs %d bytes", len(img1), len(img2))
			}
		})
	}
}

// sectionPayloads decodes snapshot img and returns each section's
// name and payload, in order.
func sectionPayloads(t testing.TB, img []byte) (names []string, payloads [][]byte) {
	t.Helper()
	snap, err := state.Read(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range snap.Sections() {
		d := snap.Dec(sec)
		b := make([]byte, d.Remaining())
		for i := range b {
			b[i] = d.U8()
		}
		names, payloads = append(names, sec), append(payloads, b)
	}
	return names, payloads
}

// resealSection re-encodes snapshot img with section name's payload
// replaced by payload and every other section copied byte for byte, so
// the container framing still passes. A name that img lacks is
// appended as an extra section.
func resealSection(t testing.TB, img []byte, name string, payload []byte) []byte {
	t.Helper()
	snap, err := state.Read(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	out := state.New(snap.Predictor, snap.ConfigHash)
	names := snap.Sections()
	if !slices.Contains(names, name) {
		names = append(names, name)
	}
	for _, sec := range names {
		e := out.Section(sec)
		if sec == name {
			for _, b := range payload {
				e.U8(b)
			}
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

// FuzzLoadState feeds one predictor per engine and history (TAGE and
// GEHL, each over the conventional history and the BF-GHR; the neural
// engine over the folded dense history, the sampled offsets, and
// BF-Neural's recency stack and bias-free shift register), oh-snap and
// the table predictors (bimodal, gshare, local, tournament, yags,
// filter) a trained donor's snapshot with one section's payload
// replaced by fuzz bytes. A load that fails must leave the predictor's SaveState bytes
// unchanged; after a load that succeeds, 1,000 more Predict/Update
// steps must not panic. The seed corpus empties, truncates, keeps and
// extends by one byte every section of every donor.
func FuzzLoadState(f *testing.F) {
	spec, ok := bfbp.TraceByName("SERV1")
	if !ok {
		f.Fatal("SERV1 missing")
	}
	tr := spec.GenerateN(4000)
	type target struct {
		p      bfbp.Predictor
		snap   sim.Snapshotter
		donor  []byte
		secs   []string
		before []byte
	}
	var targets []target
	for i, name := range []string{"isl-tage-15", "bf-isl-tage-10", "o-gehl", "bf-gehl",
		"bf-neural", "bf-neural-ghist", "perceptron-fhist", "strided", "oh-snap",
		"bimodal", "gshare", "local", "tournament", "yags", "filter"} {
		info, err := bfbp.PredictorByName(name)
		if err != nil {
			f.Fatal(err)
		}
		train := func(tr bfbp.Trace) bfbp.Predictor {
			p := info.New()
			if _, err := bfbp.Run(p, tr.Stream(), bfbp.Options{}); err != nil {
				f.Fatal(err)
			}
			return p
		}
		p := train(tr[:1000])
		var buf bytes.Buffer
		if err := bfbp.Capabilities(train(tr[:2000])).Snapshot.SaveState(&buf); err != nil {
			f.Fatal(err)
		}
		donor := bytes.Clone(buf.Bytes())
		secs, payloads := sectionPayloads(f, donor)
		t := target{p: p, snap: bfbp.Capabilities(p).Snapshot, donor: donor, secs: secs}
		buf.Reset()
		if err := t.snap.SaveState(&buf); err != nil {
			f.Fatal(err)
		}
		t.before = buf.Bytes()
		targets = append(targets, t)
		for j, payload := range payloads {
			f.Add(uint8(i), uint8(j), []byte{})
			f.Add(uint8(i), uint8(j), payload[:len(payload)/2])
			f.Add(uint8(i), uint8(j), payload)
			f.Add(uint8(i), uint8(j), append(payload, 0))
		}
	}
	f.Fuzz(func(t *testing.T, pi, si uint8, payload []byte) {
		tg := targets[int(pi)%len(targets)]
		img := resealSection(t, tg.donor, tg.secs[int(si)%len(tg.secs)], payload)
		save := func() []byte {
			var buf bytes.Buffer
			if err := tg.snap.SaveState(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if err := tg.snap.LoadState(bytes.NewReader(img)); err != nil {
			if !bytes.Equal(save(), tg.before) {
				t.Fatalf("failed load (%v) changed the predictor", err)
			}
			return
		}
		for _, rec := range tr[2000:3000] {
			tg.p.Predict(rec.PC)
			tg.p.Update(rec.PC, rec.Taken, rec.Target)
		}
		if err := tg.snap.LoadState(bytes.NewReader(tg.before)); err != nil {
			t.Fatalf("restoring the target: %v", err)
		}
	})
}

// TestFailedLoadLeavesPredictorUntouched asserts that LoadState fails
// closed on every registry predictor. A donor snapshot with any one
// section emptied, any one section with one byte appended, or one extra
// section must be rejected with a typed error (ErrCorrupt for the last
// two) and leave the predictor byte-identical to a twin trained the
// same way. Emptying is skipped for a section that is empty in the
// donor (static's), since it legitimately decodes from nothing.
func TestFailedLoadLeavesPredictorUntouched(t *testing.T) {
	tr := genTrace(t, "SERV1", 4000)
	half := tr[:len(tr)/2]
	for _, info := range bfbp.Predictors() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			train := func(tr bfbp.Trace) bfbp.Predictor {
				p := info.New()
				if _, err := bfbp.Run(p, tr.Stream(), bfbp.Options{}); err != nil {
					t.Fatal(err)
				}
				return p
			}
			p, twin := train(half), train(half)
			img := saveState(t, train(tr))
			want := saveState(t, twin)
			check := func(what string, bad []byte, typed ...error) {
				t.Helper()
				err := bfbp.Capabilities(p).Snapshot.LoadState(bytes.NewReader(bad))
				if !slices.ContainsFunc(typed, func(e error) bool { return errors.Is(err, e) }) {
					t.Fatalf("%s: got %v, want one of %v", what, err, typed)
				}
				if !bytes.Equal(saveState(t, p), want) {
					t.Fatalf("%s: failed load changed the predictor", what)
				}
			}
			names, payloads := sectionPayloads(t, img)
			for i, sec := range names {
				if len(payloads[i]) > 0 {
					check("empty "+sec+" section", resealSection(t, img, sec, nil), state.ErrCorrupt, state.ErrTruncated)
				}
				check(sec+" section plus one byte", resealSection(t, img, sec, append(payloads[i], 0)), state.ErrCorrupt)
			}
			check("extra section", resealSection(t, img, "extra", []byte{1}), state.ErrCorrupt)
		})
	}
}

// TestLoadRejectsOutOfRangeState edits one value of a trained
// snapshot on every registry predictor that has a value narrower than
// its field: a counter or weight beyond its range (each table
// predictor's counter sections at one past either bound), the adaptive
// threshold of a neural predictor below its floor or its counter at a
// full period, TAGE's useful-reset tick outside [0, 2^18) and, on the
// BF-GHR predictors, the outcome of a recency-stack entry. Each load
// must fail with ErrCorrupt and leave the predictor saving the same
// bytes. The static predictors have no such value and are skipped.
func TestLoadRejectsOutOfRangeState(t *testing.T) {
	tr := genTrace(t, "SERV1", 4000)
	i32 := func(v int32) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(v)) }
	i64 := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	for _, info := range bfbp.Predictors() {
		type edit struct {
			section string
			apply   func(payload []byte)
		}
		set := func(off int, val []byte) func([]byte) { return func(p []byte) { copy(p[off:], val) } }
		// outside edits the i32 counter at off to one past each bound.
		outside := func(section string, off int, lo, hi int32) []edit {
			return []edit{{section, set(off, i32(hi+1))}, {section, set(off, i32(lo-1))}}
		}
		var edits []edit
		switch name := info.Name; {
		case name == "bimodal" || name == "gshare":
			edits = outside("pht", 4, -2, 1)
		case name == "local":
			edits = outside("pht", 4, -4, 3)
		case name == "tournament":
			edits = slices.Concat(outside("local_pht", 4, -4, 3), outside("global_pht", 4, -2, 1), outside("chooser", 4, -2, 1))
		case name == "yags":
			// A cache entry is a u16 tag, the i32 counter and a bool.
			edits = slices.Concat(outside("choice", 4, -2, 1), outside("t_cache", 2, -2, 1), outside("nt_cache", 2, -2, 1))
		case name == "filter":
			// A filter entry is a bool, the u32 run count and a bool.
			edits = slices.Concat(outside("pht", 4, -2, 1), outside("filter", 1, 0, 127))
		case name == "oh-snap":
			// misc: the threshold, then its counter.
			edits = []edit{{"coeff", set(4, i32(1000))}, {"misc", set(0, i32(0))}, {"misc", set(4, i32(64))}}
		case name == "perceptron" || name == "perceptron-fhist" || name == "strided":
			edits = []edit{{"misc", set(0, i32(0))}, {"misc", set(4, i32(-1<<20))}}
		case strings.HasPrefix(name, "bf-neural"):
			// misc: the loop chooser, the threshold, then its counter.
			edits = []edit{{"wm", set(4, []byte{100})}, {"misc", set(4, i32(3))}, {"misc", set(8, i32(1<<20))}}
		case strings.Contains(name, "tage"):
			// table_0: entry 0's counter; misc: use-alt, then the tick.
			edits = []edit{{"table_0", set(2, []byte{100})}, {"misc", set(4, i64(-1))}, {"misc", set(4, i64(1<<18))}}
		case strings.HasSuffix(name, "gehl"):
			edits = []edit{{"tables", set(8, []byte{100})}} // table 0's weight 0
		}
		if strings.HasPrefix(info.Name, "bf-") && !strings.HasPrefix(info.Name, "bf-neural") {
			edits = append(edits, edit{"history", func(p []byte) { p[firstSegmentOutcome(p)] ^= 1 }})
		}
		if edits == nil {
			continue
		}
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			p := info.New()
			if _, err := bfbp.Run(p, tr.Stream(), bfbp.Options{}); err != nil {
				t.Fatal(err)
			}
			img := saveState(t, p)
			names, payloads := sectionPayloads(t, img)
			for _, e := range edits {
				payload := bytes.Clone(payloads[slices.Index(names, e.section)])
				e.apply(payload)
				err := bfbp.Capabilities(p).Snapshot.LoadState(bytes.NewReader(resealSection(t, img, e.section, payload)))
				if !errors.Is(err, state.ErrCorrupt) {
					t.Fatalf("edited %s section: got %v, want ErrCorrupt", e.section, err)
				}
				if !bytes.Equal(saveState(t, p), img) {
					t.Fatalf("edited %s section: failed load changed the predictor", e.section)
				}
			}
		})
	}
}

// firstSegmentOutcome returns the offset, in a BF-GHR "history"
// section, of the outcome bool of the first entry of the first
// non-empty segment: after the position counter, the ring (head, size,
// two recent words, then its pcs and two packed bool runs, each behind
// a u32 count) and the segment count, each segment is a u32 entry
// count and 17-byte entries of pc, outcome and seq.
func firstSegmentOutcome(payload []byte) int {
	capacity := int(binary.LittleEndian.Uint32(payload[40:]))
	off := 40 + 4 + 4*capacity + 2*(4+(capacity+7)/8) + 4
	for {
		if n := binary.LittleEndian.Uint32(payload[off:]); n > 0 {
			return off + 4 + 8
		}
		off += 4
	}
}

// TestSnapshotMismatchErrors asserts the typed-error contract when a
// snapshot is restored into the wrong predictor or configuration.
func TestSnapshotMismatchErrors(t *testing.T) {
	tr := genTrace(t, "INT2", 1000)
	p := bfbp.NewGShare(1<<16, 16)
	if _, err := bfbp.Run(p, tr.Stream(), bfbp.Options{}); err != nil {
		t.Fatal(err)
	}
	img := saveState(t, p)

	snap, err := state.Read(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("state.Read: %v", err)
	}
	if snap.Predictor != "gshare" {
		t.Fatalf("header predictor %q, want gshare", snap.Predictor)
	}

	wrong := bfbp.NewBimodal(1 << 14)
	if err := bfbp.Capabilities(wrong).Snapshot.LoadState(bytes.NewReader(img)); !errors.Is(err, state.ErrPredictorMismatch) {
		t.Fatalf("load into bimodal: %v, want ErrPredictorMismatch", err)
	}
	smaller := bfbp.NewGShare(1<<14, 14)
	if err := bfbp.Capabilities(smaller).Snapshot.LoadState(bytes.NewReader(img)); !errors.Is(err, state.ErrConfigMismatch) {
		t.Fatalf("load into resized gshare: %v, want ErrConfigMismatch", err)
	}
	if err := bfbp.Capabilities(p).Snapshot.LoadState(bytes.NewReader(img[:len(img)/2])); !errors.Is(err, state.ErrTruncated) {
		t.Fatalf("truncated load: %v, want ErrTruncated", err)
	}
}

// TestSelectPredictors covers the shared -preds selection helper.
func TestSelectPredictors(t *testing.T) {
	all, err := bfbp.SelectPredictors("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(bfbp.Predictors()) {
		t.Fatalf("all selected %d, registry has %d", len(all), len(bfbp.Predictors()))
	}
	got, err := bfbp.SelectPredictors(" gshare, bf-neural-64kb ,tage-7")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"gshare", "bf-neural", "tage-7"}
	if len(got) != len(names) {
		t.Fatalf("selected %d entries, want %d", len(got), len(names))
	}
	for i, want := range names {
		if got[i].Name != want {
			t.Errorf("entry %d: %q, want %q", i, got[i].Name, want)
		}
	}
	if _, err := bfbp.SelectPredictors("no-such-predictor"); err == nil {
		t.Error("unknown name did not error")
	}
	if _, err := bfbp.SelectPredictors(" , "); err == nil {
		t.Error("empty list did not error")
	}
}
