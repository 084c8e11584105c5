package bfbp

import (
	"strings"
	"testing"
)

func TestRegistryCoversEveryEntry(t *testing.T) {
	infos := Predictors()
	if len(infos) < 40 {
		t.Fatalf("registry has %d entries, expected the full constructor set", len(infos))
	}
	seen := map[string]bool{}
	for _, info := range infos {
		if seen[info.Name] {
			t.Fatalf("duplicate registry name %q", info.Name)
		}
		seen[info.Name] = true
		if info.Description == "" {
			t.Fatalf("%s: empty description", info.Name)
		}
		p := info.New()
		if p == nil {
			t.Fatalf("%s: constructor returned nil", info.Name)
		}
		if p.Name() == "" {
			t.Fatalf("%s: instance has empty name", info.Name)
		}
		// Fresh instances per call, not a shared singleton.
		if q := info.New(); q == p {
			t.Fatalf("%s: New returned the same instance twice", info.Name)
		}
		// Round trip: every listed name resolves through the lookup path.
		got, err := PredictorByName(info.Name)
		if err != nil {
			t.Fatalf("PredictorByName(%s): %v", info.Name, err)
		}
		if got.New() == nil {
			t.Fatalf("PredictorByName(%s).New() = nil", info.Name)
		}
	}
	for _, want := range []string{"bf-neural", "oh-snap", "tage-15", "isl-tage-15", "bf-tage-10", "bf-isl-tage-10"} {
		if !seen[want] {
			t.Fatalf("registry missing %q", want)
		}
	}
}

func TestRegistryAliases(t *testing.T) {
	a, err := PredictorByName("bf-neural-64kb")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "bf-neural" {
		t.Fatalf("alias resolved to %q, want bf-neural", a.Name)
	}
}

func TestRegistryRejectsUnknown(t *testing.T) {
	for _, name := range []string{"nope", "tage-", "tage-99", "bf-isl-tage-3", "bf-tage-eleven"} {
		if _, err := PredictorByName(name); err == nil {
			t.Fatalf("PredictorByName(%q) should fail", name)
		}
	}
	if _, err := PredictorByName("tage-99"); err == nil || !strings.Contains(err.Error(), "[1,15]") {
		t.Fatalf("out-of-range error should state bounds, got %v", err)
	}
}

// Every listed name resolves to the same entry through the lookup path,
// so the catalogue and PredictorByName cannot drift.
func TestRegistryNamesMatchPredictors(t *testing.T) {
	for _, info := range Predictors() {
		got, err := PredictorByName(info.Name)
		if err != nil {
			t.Fatalf("PredictorByName(%s): %v", info.Name, err)
		}
		if got.Name != info.Name || got.Description != info.Description {
			t.Fatalf("PredictorByName(%s) = %q (%q), want %q (%q)", info.Name, got.Name, got.Description, info.Name, info.Description)
		}
	}
}

func TestRegistrySpecAdaptsToEngine(t *testing.T) {
	info, err := PredictorByName("gshare")
	if err != nil {
		t.Fatal(err)
	}
	spec := info.Spec()
	if spec.Name != "gshare" || spec.New == nil || spec.New() == nil {
		t.Fatalf("Spec() adaptor broken: %+v", spec)
	}
}
