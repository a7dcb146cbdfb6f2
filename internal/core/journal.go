// Study journaling: the adapter between the generic durable record log
// (internal/journal) and the study engine. Each placed cell is appended
// as its CellOutcome; a resumed run replays the outcomes into the same
// Assembler the run places fresh work into and skips the finished
// cells, so the final study.json is byte-identical either way.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"sevsim/internal/journal"
)

// Journal record kinds. The meta record is always first and pins the
// spec; every later record is one placed cell's CellOutcome — a result,
// a keep-going quarantine, or a stuck cell — with the unit's golden
// record riding on the unit's first outcome, exactly as RunCells
// returns them.
const (
	kindMeta    = "meta"
	kindOutcome = "outcome"
)

// ErrJournalUnusable marks a study journal that cannot be resumed:
// recorded under another spec, written in an older record format, or
// holding a record that does not fit the spec. Nothing in such a
// journal is silently recomputed; the caller removes it or stops.
var ErrJournalUnusable = errors.New("study journal cannot be resumed")

// unusableError keeps a rejected journal's message and marks it
// ErrJournalUnusable.
type unusableError struct{ error }

func (e unusableError) Unwrap() []error { return []error{e.error, ErrJournalUnusable} }

// metaRecord fingerprints the spec a journal belongs to. Everything
// that can change a result is included; execution knobs that cannot
// (Parallelism, Progress, KeepGoing, Retries, CellTimeout) are not, so
// a study may be resumed with different ones.
type metaRecord struct {
	Machines []string
	Benches  []string
	Sizes    []int
	Levels   []string
	Targets  []string
	Faults   int
	Seed     int64
	Prune    bool
}

// studyJournal is the writer side of an open study journal. A nil
// *studyJournal is a valid no-op, so call sites need no journal guards.
type studyJournal struct {
	w *journal.Writer
}

func (j *studyJournal) appendOutcome(o CellOutcome) error {
	if j == nil {
		return nil
	}
	if err := j.w.Append(kindOutcome, o); err != nil {
		return fmt.Errorf("study journal: %w", err)
	}
	return nil
}

func (j *studyJournal) close() {
	if j != nil {
		j.w.Close()
	}
}

// fingerprint derives the meta record from the spec. Everything that
// can change a result must be reachable from here — the
// fingerprintcover pass of cmd/sevlint checks that every Spec field is
// either referenced by fingerprint (directly or via resolveSizes) or
// annotated //journal:ephemeral with the argument for why a resume may
// change it.
func (s Spec) fingerprint() metaRecord {
	m := metaRecord{
		Sizes:  s.resolveSizes(),
		Faults: s.Faults,
		Seed:   s.Seed,
		Prune:  s.Prune,
	}
	for _, cfg := range s.Machines {
		m.Machines = append(m.Machines, cfg.Name)
	}
	for _, b := range s.Benchmarks {
		m.Benches = append(m.Benches, b.Name)
	}
	for _, l := range s.Levels {
		m.Levels = append(m.Levels, l.String())
	}
	for _, t := range s.Targets {
		m.Targets = append(m.Targets, t.Name())
	}
	return m
}

// resolveSizes returns the effective size of each benchmark.
func (s Spec) resolveSizes() []int {
	sizes := make([]int, len(s.Benchmarks))
	for i, b := range s.Benchmarks {
		sizes[i] = b.DefaultSize
		if s.Size != nil {
			sizes[i] = s.Size(b)
		}
	}
	return sizes
}

// openStudyJournal opens (or creates) the journal at path, validates
// the meta record against the spec, and replays every outcome record
// into asm.
func openStudyJournal(path string, meta metaRecord, asm *Assembler) (*studyJournal, error) {
	w, recs, err := journal.Open(path, journal.Options{})
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		// Fresh journal: pin the spec before any outcome record.
		if err := w.Append(kindMeta, meta); err != nil {
			w.Close()
			return nil, fmt.Errorf("study journal: %w", err)
		}
		return &studyJournal{w: w}, nil
	}
	err = checkMeta(path, recs[0], meta)
	if err == nil {
		err = replayOutcomes(path, recs[1:], asm)
	}
	if err != nil {
		w.Close()
		return nil, unusableError{err}
	}
	return &studyJournal{w: w}, nil
}

// checkMeta rejects a journal whose first record does not pin the
// current spec.
func checkMeta(path string, rec journal.Record, meta metaRecord) error {
	if rec.Kind != kindMeta {
		return fmt.Errorf("study journal %s: first record is %q, not %q", path, rec.Kind, kindMeta)
	}
	var got metaRecord
	if err := json.Unmarshal(rec.Data, &got); err != nil {
		return fmt.Errorf("study journal %s: meta record: %w", path, err)
	}
	if diff := diffMeta(got, meta); len(diff) > 0 {
		return fmt.Errorf("study journal %s was recorded under a different spec:\n  %s\nremove the journal, or pass a different -journal path, or restore the knobs above",
			path, strings.Join(diff, "\n  "))
	}
	return nil
}

// replayOutcomes places a journal's outcome records (those after the
// meta record) into asm. Any other record kind — including the
// golden/cell/failure records of journals written before outcome
// records existed — is an error naming the journal, never a silent
// recompute.
func replayOutcomes(path string, recs []journal.Record, asm *Assembler) error {
	for i, r := range recs {
		if r.Kind != kindOutcome {
			return fmt.Errorf("study journal %s: record %d has kind %q, not %q (a journal written before outcome records cannot be resumed); remove the journal and rerun",
				path, i+1, r.Kind, kindOutcome)
		}
		var o CellOutcome
		if err := json.Unmarshal(r.Data, &o); err != nil {
			return fmt.Errorf("study journal %s: record %d: %w", path, i+1, err)
		}
		if _, err := asm.Add(o); err != nil {
			return fmt.Errorf("study journal %s: record %d: %w", path, i+1, err)
		}
	}
	return nil
}

// diffMeta renders a field-level diff of a journal's stored spec
// fingerprint against the current one, one line per differing knob, so
// a rejected resume says exactly which knob changed instead of an
// opaque "fingerprint mismatch". Empty when the fingerprints match.
func diffMeta(stored, current metaRecord) []string {
	var out []string
	scalar := func(field string, s, c any) {
		if s != c {
			out = append(out, fmt.Sprintf("%s: journal has %v, current spec has %v", field, s, c))
		}
	}
	list := func(field string, s, c []string) {
		if len(s) != len(c) {
			out = append(out, fmt.Sprintf("%s: journal has %d entries [%s], current spec has %d [%s]",
				field, len(s), strings.Join(s, " "), len(c), strings.Join(c, " ")))
			return
		}
		for i := range s {
			if s[i] != c[i] {
				out = append(out, fmt.Sprintf("%s[%d]: journal has %q, current spec has %q", field, i, s[i], c[i]))
			}
		}
	}
	list("Machines", stored.Machines, current.Machines)
	list("Benches", stored.Benches, current.Benches)
	if len(stored.Sizes) != len(current.Sizes) {
		out = append(out, fmt.Sprintf("Sizes: journal has %d entries %v, current spec has %d %v",
			len(stored.Sizes), stored.Sizes, len(current.Sizes), current.Sizes))
	} else {
		for i := range stored.Sizes {
			if stored.Sizes[i] != current.Sizes[i] {
				bench := fmt.Sprintf("Sizes[%d]", i)
				if i < len(current.Benches) {
					bench = fmt.Sprintf("Sizes[%d] (%s)", i, current.Benches[i])
				}
				scalar(bench, stored.Sizes[i], current.Sizes[i])
			}
		}
	}
	list("Levels", stored.Levels, current.Levels)
	list("Targets", stored.Targets, current.Targets)
	scalar("Faults", stored.Faults, current.Faults)
	scalar("Seed", stored.Seed, current.Seed)
	scalar("Prune", stored.Prune, current.Prune)
	return out
}
