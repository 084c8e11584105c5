package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The journal event schema lives in three places: the Emit call sites,
// JournalEventKinds(), and the DESIGN.md schema table. This guard fails
// when any of them drifts from the others.
func TestJournalKindsMatchDocs(t *testing.T) {
	published := map[string]bool{}
	for _, k := range JournalEventKinds() {
		if published[k] {
			t.Fatalf("JournalEventKinds lists %q twice", k)
		}
		published[k] = true
	}

	// Every kind passed to Emit in this package must be published, and
	// every published kind must have a producing call site.
	emitted := map[string]bool{}
	re := regexp.MustCompile(`\.Emit\("([a-z_]+)"`)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(src), -1) {
			emitted[m[1]] = true
		}
	}
	if len(emitted) == 0 {
		t.Fatal("found no Emit call sites — regexp or layout drifted")
	}
	for k := range emitted {
		if !published[k] {
			t.Errorf("Emit call site uses kind %q missing from JournalEventKinds()", k)
		}
	}
	for k := range published {
		if !emitted[k] {
			t.Errorf("JournalEventKinds lists %q but no Emit call site produces it", k)
		}
	}

	// Every published kind must appear backticked in DESIGN.md.
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for k := range published {
		if !strings.Contains(string(doc), "`"+k+"`") {
			t.Errorf("DESIGN.md schema table missing `%s`", k)
		}
	}

	// DESIGN.md must also document the trace correlation contract: the
	// bfbp.trace.v1 export format and the journal's span field.
	for _, frag := range []string{"`bfbp.trace.v1`", "`span`"} {
		if !strings.Contains(string(doc), frag) {
			t.Errorf("DESIGN.md missing %s (trace/journal correlation contract)", frag)
		}
	}
}

// Every journal payload must carry the optional span tag, so any
// journal record can be joined to its bfbp.trace.v1 timeline slice. A
// new event kind whose payload forgets the field breaks the
// correlation contract silently — this guard makes it loud.
func TestJournalPayloadsCarrySpanTag(t *testing.T) {
	payloads := map[string]any{
		"suite_start":           journalSuiteStart{},
		"suite_finish":          journalSuiteFinish{},
		"run_start":             journalRunStart{},
		"run_finish":            journalRunFinish{},
		"run_error":             journalRunError{},
		"window":                journalWindow{},
		"storage":               journalStorage{},
		"worker_state":          journalWorkerState{},
		"provenance":            journalProvenance{},
		"component_attribution": journalComponentAttribution{},
		"checkpoint":            journalCheckpoint{},
		"drift":                 journalDrift{},
		"tablestats":            journalTableStats{},
	}
	for _, k := range JournalEventKinds() {
		if _, ok := payloads[k]; !ok {
			t.Errorf("no payload struct registered here for kind %q — add it to this test", k)
		}
	}
	for kind, payload := range payloads {
		typ := reflect.TypeOf(payload)
		field, ok := typ.FieldByName("Span")
		if !ok {
			t.Errorf("%s payload %s has no Span field", kind, typ.Name())
			continue
		}
		if tag := field.Tag.Get("json"); tag != "span,omitempty" {
			t.Errorf("%s payload %s.Span json tag = %q, want \"span,omitempty\"", kind, typ.Name(), tag)
		}
		if field.Type.Kind() != reflect.Uint64 {
			t.Errorf("%s payload %s.Span is %s, want uint64", kind, typ.Name(), field.Type)
		}
	}
}
