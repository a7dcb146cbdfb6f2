package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"sevsim/internal/compiler"
	"sevsim/internal/journal"
)

// TestJournalHoldsOneOutcomePerCell: a complete journaled study leaves
// its meta record and one outcome record per cell, the unit's golden
// riding on exactly one outcome of each unit.
func TestJournalHoldsOneOutcomePerCell(t *testing.T) {
	spec := resumeSpec(t)
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Scan(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(spec.Cells()); len(recs) != want {
		t.Fatalf("journal holds %d records, want %d", len(recs), want)
	}
	goldens := map[cellKey]int{}
	for i, r := range recs[1:] {
		if r.Kind != kindOutcome {
			t.Fatalf("record %d has kind %q", i+1, r.Kind)
		}
		var o CellOutcome
		if err := json.Unmarshal(r.Data, &o); err != nil {
			t.Fatal(err)
		}
		if o.Golden != nil {
			goldens[o.Cell.unit()]++
		}
	}
	units := len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels)
	if len(goldens) != units {
		t.Errorf("goldens journaled for %d units, want %d", len(goldens), units)
	}
	for u, n := range goldens {
		if n != 1 {
			t.Errorf("unit %v journaled its golden %d times", u, n)
		}
	}
}

// TestRunResumesRunCellsJournal: outcomes a RunCells call journaled
// are replayed by a later Run on the same journal — one record format,
// one merge path — and the study matches a journal-free run.
func TestRunResumesRunCellsJournal(t *testing.T) {
	clean, err := resumeSpec(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	spec := resumeSpec(t)
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	cells := spec.Cells()
	// Every other cell: each unit is left half done.
	var half []CellRef
	for i := 0; i < len(cells); i += 2 {
		half = append(half, cells[i])
	}
	if _, err := spec.RunCells(context.Background(), half); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var lines []string
	spec.Progress = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	st, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, st), saveBytes(t, clean)) {
		t.Error("Run resumed from a RunCells journal differs from a journal-free run")
	}
	want := fmt.Sprintf("resume: %d/%d cells replayed from journal %s", len(half), len(cells), spec.Journal)
	if !slices.Contains(lines, want) {
		t.Errorf("progress lacks %q:\n%s", want, strings.Join(lines, "\n"))
	}
}

// TestJournalOlderFormatRejected: a journal with golden/cell/failure
// records (the format before outcome records) under a matching meta
// record is refused with an error naming it, before any work starts.
func TestJournalOlderFormatRejected(t *testing.T) {
	spec := resumeSpec(t)
	spec.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	w, _, err := journal.Open(spec.Journal, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(kindMeta, spec.fingerprint()); err != nil {
		t.Fatal(err)
	}
	c := spec.Cells()[0]
	old := map[string]Golden{"Golden": {March: c.March, Bench: c.Bench, Level: c.Level, Cycles: 1}}
	if err := w.Append("golden", old); err != nil {
		t.Fatal(err)
	}
	w.Close()

	lines := 0
	var mu sync.Mutex
	spec.Progress = func(string, ...any) {
		mu.Lock()
		lines++
		mu.Unlock()
	}
	st, err := spec.Run()
	if err == nil || st != nil {
		t.Fatalf("older journal accepted: st=%v err=%v", st, err)
	}
	if !strings.Contains(err.Error(), spec.Journal) || !strings.Contains(err.Error(), "remove the journal") {
		t.Errorf("error does not name the journal and the fix: %v", err)
	}
	if lines != 0 {
		t.Errorf("rejected journal still ran %d progress steps", lines)
	}
}

// TestPartialUnitFailureStaysQuarantined: a journal cut short after
// the first placeholder of a quarantined unit resumes with the whole
// unit quarantined, even when the unit's preparation would now succeed.
func TestPartialUnitFailureStaysQuarantined(t *testing.T) {
	healthy := compileUnit
	withCompileFailure(t, "gsm", compiler.O2, 1<<30)
	spec := resumeSpec(t)
	spec.KeepGoing = true
	spec.Journal = filepath.Join(t.TempDir(), "full.jsonl")
	first, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Scan(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}

	// Copy the journal, keeping only the first placeholder of the
	// quarantined unit, as a crash between two appends leaves it.
	spec.Journal = filepath.Join(t.TempDir(), "cut.jsonl")
	w, _, err := journal.Open(spec.Journal, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept := false
	for _, r := range recs {
		var o CellOutcome
		if r.Kind == kindOutcome {
			if err := json.Unmarshal(r.Data, &o); err != nil {
				t.Fatal(err)
			}
		}
		if o.UnitFailure != nil {
			if kept {
				continue
			}
			kept = true
		}
		if err := w.Append(r.Kind, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if !kept {
		t.Fatal("the full run journaled no unit failure")
	}

	compileUnit = healthy
	second, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, first), saveBytes(t, second)) {
		t.Error("resumed study does not keep the whole unit quarantined")
	}
}

// FuzzStudyJournalReplay feeds arbitrary record kinds and payloads to
// replayOutcomes, the trust boundary between a journal on disk and the
// Assembler. Each newline-separated line of data is one record of the
// given kind. Replay must fail or succeed, never panic, and never
// account for more cells than the spec has.
func FuzzStudyJournalReplay(f *testing.F) {
	spec := resumeSpec(f)
	spec.Journal = filepath.Join(f.TempDir(), "journal.jsonl")
	if _, err := spec.Run(); err != nil {
		f.Fatal(err)
	}
	recs, err := journal.Scan(spec.Journal)
	if err != nil {
		f.Fatal(err)
	}
	var all [][]byte
	for _, r := range recs[1:] {
		f.Add(r.Kind, []byte(r.Data))
		all = append(all, r.Data)
	}
	f.Add(kindOutcome, bytes.Join(all, []byte("\n")))
	f.Add("golden", []byte(`{"Golden":{"March":"a15"}}`))
	spec.Journal = ""
	f.Fuzz(func(t *testing.T, kind string, data []byte) {
		var recs []journal.Record
		for _, line := range bytes.Split(data, []byte("\n")) {
			recs = append(recs, journal.Record{Kind: kind, Data: line})
		}
		asm := NewAssembler(spec)
		err := replayOutcomes("fuzz.jsonl", recs, asm)
		if asm.Done() > asm.Total() {
			t.Fatalf("replay placed %d of %d cells", asm.Done(), asm.Total())
		}
		if err == nil && asm.Complete() {
			if _, err := asm.Study(); err != nil {
				t.Fatalf("complete replay does not assemble: %v", err)
			}
		}
	})
}
