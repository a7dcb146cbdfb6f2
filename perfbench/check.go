package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"sevsim/internal/campaign"
	"sevsim/internal/core"
)

// cellLine is the part of one campaign cell the digest covers: its
// identity and its classification. The Pruned* split and Study.Static
// are left out on purpose, so dropping a pruner tier or a counter field
// keeps the digest while any changed classification breaks it.
func cellLine(r campaign.Result) string {
	c := r.Counts
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d|%d|%d|%d|%d\n",
		r.March, r.Bench, r.Level, r.Target, r.Faults, c.Masked, c.SDC, c.Crash, c.Timeout, c.Assert)
}

// digest hashes every cell's classification in study order.
func digest(st *core.Study) string {
	h := sha256.New()
	for _, r := range st.Results {
		io.WriteString(h, cellLine(r))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// badCells counts the cells of st that did not complete cleanly: cells
// quarantined, skipped or interrupted, cells carrying an Unexpected
// assert, and cells whose counts do not add up to the faults asked
// for. A study missing cells counts the missing ones too.
func badCells(st *core.Study, want int, faults int) int {
	bad := max(want-len(st.Results), 0)
	failed := make(map[string]bool)
	for _, f := range st.Failed {
		failed[f.March+"/"+f.Bench+"/"+f.Level+"/"+f.Target] = true
	}
	for _, r := range st.Results {
		unit := r.March + "/" + r.Bench + "/" + r.Level + "/"
		if failed[unit] || failed[unit+r.Target] || r.Skipped != "" || r.Interrupted ||
			r.Counts.Unexpected > 0 || r.Faults != faults || r.Counts.Total() != r.Faults {
			bad++
		}
	}
	return bad
}

// differingCells counts the cells whose digest line differs between
// two studies of the same spec.
func differingCells(a, b *core.Study) int {
	if len(a.Results) != len(b.Results) {
		return max(len(a.Results), len(b.Results))
	}
	n := 0
	for i := range a.Results {
		if cellLine(a.Results[i]) != cellLine(b.Results[i]) {
			n++
		}
	}
	return n
}
