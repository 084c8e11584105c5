package bfbp_test

import (
	"bytes"
	"errors"
	"testing"

	"bfbp"
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
// per-bank provider hits.
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
				got.Merge(second)

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
				wantOff := straight.TopOffenders(10)
				gotOff := got.TopOffenders(10)
				if len(wantOff) != len(gotOff) {
					t.Fatalf("offender count %d != %d", len(gotOff), len(wantOff))
				}
				for i := range wantOff {
					if wantOff[i] != gotOff[i] {
						t.Fatalf("offender %d: %+v != %+v", i, gotOff[i], wantOff[i])
					}
				}
				a := bfbp.Capabilities(sp).StateProbe.ProbeState().Banks
				b := bfbp.Capabilities(resumed).StateProbe.ProbeState().Banks
				if len(a) != len(b) {
					t.Fatalf("bank count %d != %d", len(b), len(a))
				}
				for i := range a {
					if a[i].Hits != b[i].Hits {
						t.Fatalf("bank %s hits: split %d != straight %d", a[i].Label(), b[i].Hits, a[i].Hits)
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

// emptySection re-encodes the snapshot img with section name emptied
// and every other section copied byte for byte. It reports false when
// the section is already empty in img.
func emptySection(t *testing.T, img []byte, name string) ([]byte, bool) {
	t.Helper()
	snap, err := state.Read(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.Dec(name)
	if err != nil {
		t.Fatal(err)
	}
	return resealSection(t, snap, name, nil), d.Remaining() > 0
}

// resealSection re-encodes snap with section name's payload replaced by
// payload and every other section copied byte for byte, so the
// container checksum still passes.
func resealSection(t testing.TB, snap *state.Snapshot, name string, payload []byte) []byte {
	t.Helper()
	out := state.New(snap.Predictor, snap.ConfigHash)
	for _, sec := range snap.Sections() {
		e := out.Section(sec)
		if sec == name {
			for _, b := range payload {
				e.U8(b)
			}
			continue
		}
		d, err := snap.Dec(sec)
		if err != nil {
			t.Fatal(err)
		}
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
// BF-Neural's recency stack and bias-free shift register) and oh-snap
// a trained donor's snapshot with one section's payload replaced by
// fuzz bytes.
// A load that fails must leave the predictor's SaveState bytes
// unchanged; after a load that succeeds, 1,000 more Predict/Update
// steps must not panic. The seed corpus empties, truncates and keeps
// every section of every donor.
func FuzzLoadState(f *testing.F) {
	spec, ok := bfbp.TraceByName("SERV1")
	if !ok {
		f.Fatal("SERV1 missing")
	}
	tr := spec.GenerateN(4000)
	type target struct {
		p      bfbp.Predictor
		snap   bfbp.Snapshotter
		donor  *state.Snapshot
		before []byte
	}
	var targets []target
	for i, name := range []string{"isl-tage-15", "bf-isl-tage-10", "o-gehl", "bf-gehl",
		"bf-neural", "bf-neural-ghist", "perceptron-fhist", "strided", "oh-snap"} {
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
		donor, err := state.Read(&buf)
		if err != nil {
			f.Fatal(err)
		}
		t := target{p: p, snap: bfbp.Capabilities(p).Snapshot, donor: donor}
		buf.Reset()
		if err := t.snap.SaveState(&buf); err != nil {
			f.Fatal(err)
		}
		t.before = buf.Bytes()
		targets = append(targets, t)
		for j, sec := range donor.Sections() {
			d, _ := donor.Dec(sec)
			payload := make([]byte, d.Remaining())
			for k := range payload {
				payload[k] = d.U8()
			}
			f.Add(uint8(i), uint8(j), []byte{})
			f.Add(uint8(i), uint8(j), payload[:len(payload)/2])
			f.Add(uint8(i), uint8(j), payload)
		}
	}
	f.Fuzz(func(t *testing.T, pi, si uint8, payload []byte) {
		tg := targets[int(pi)%len(targets)]
		secs := tg.donor.Sections()
		img := resealSection(t, tg.donor, secs[int(si)%len(secs)], payload)
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
// closed on every registry predictor: a donor snapshot with any one
// section emptied must be rejected with a typed error and leave the
// predictor byte-identical to a twin trained the same way. Only a
// section that is empty in the donor (static's) is skipped, since it
// legitimately decodes from nothing.
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
			snap, err := state.Read(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			for _, sec := range snap.Sections() {
				bad, nonEmpty := emptySection(t, img, sec)
				if !nonEmpty {
					continue
				}
				err := bfbp.Capabilities(p).Snapshot.LoadState(bytes.NewReader(bad))
				if !errors.Is(err, state.ErrCorrupt) && !errors.Is(err, state.ErrTruncated) {
					t.Fatalf("empty %s section: got %v, want ErrCorrupt or ErrTruncated", sec, err)
				}
				if !bytes.Equal(saveState(t, p), want) {
					t.Fatalf("empty %s section: failed load changed the predictor", sec)
				}
			}
		})
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

	hdr, err := bfbp.ReadSnapshotHeader(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("ReadSnapshotHeader: %v", err)
	}
	if hdr.Predictor != "gshare" {
		t.Fatalf("header predictor %q, want gshare", hdr.Predictor)
	}

	wrong := bfbp.NewBimodal(1 << 14)
	if err := bfbp.Capabilities(wrong).Snapshot.LoadState(bytes.NewReader(img)); !errors.Is(err, bfbp.ErrSnapshotPredictor) {
		t.Fatalf("load into bimodal: %v, want ErrSnapshotPredictor", err)
	}
	smaller := bfbp.NewGShare(1<<14, 14)
	if err := bfbp.Capabilities(smaller).Snapshot.LoadState(bytes.NewReader(img)); !errors.Is(err, bfbp.ErrSnapshotConfig) {
		t.Fatalf("load into resized gshare: %v, want ErrSnapshotConfig", err)
	}
	if err := bfbp.Capabilities(p).Snapshot.LoadState(bytes.NewReader(img[:len(img)/2])); !errors.Is(err, bfbp.ErrSnapshotTruncated) {
		t.Fatalf("truncated load: %v, want ErrSnapshotTruncated", err)
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
