package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress renders a single live status line for a long-running sweep:
// carriage-return rewrites of "[label] done/total cells (NN%) Xs", rate
// limited so a fast sweep does not flood the terminal. It is safe to
// call from the pool workers directly; updates serialize internally.
//
// The line writes to its own writer (normally stderr) precisely so the
// machine-readable output on stdout — tables, JSON — stays byte-exact
// whether or not a human is watching.
type Progress struct {
	w     io.Writer
	label string

	mu      sync.Mutex
	start   time.Time
	last    time.Time
	lastLen int
	done    bool
}

// minProgressInterval is the floor between two line rewrites; the final
// (done == total) update always renders.
const minProgressInterval = 50 * time.Millisecond

// NewProgress starts a progress line labeled label on w.
func NewProgress(w io.Writer, label string) *Progress {
	return &Progress{w: w, label: label, start: time.Now()}
}

// Update reports that done of total work units have executed and
// skipped more were abandoned (by cancellation) without
// running. Its signature matches core.SweepOptions.Progress so a
// *Progress can be wired straight into the sweep engine. The percentage
// counts only executed work — skipped cells never masquerade as done —
// and a non-zero skip count renders explicitly.
func (p *Progress) Update(done, skipped, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	now := time.Now()
	if done+skipped < total && now.Sub(p.last) < minProgressInterval {
		return
	}
	p.last = now
	pct := 0
	if total > 0 {
		pct = 100 * done / total
	}
	skip := ""
	if skipped > 0 {
		skip = fmt.Sprintf(", %d skipped", skipped)
	}
	line := fmt.Sprintf("[%s] %d/%d cells (%d%%%s) %.1fs", p.label, done, total, pct, skip, now.Sub(p.start).Seconds())
	pad := ""
	if n := p.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
	p.lastLen = len(line)
}

// Done terminates the line with a newline. Further updates are ignored;
// calling Done on a line that never rendered writes nothing.
func (p *Progress) Done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	p.done = true
	if p.lastLen > 0 {
		fmt.Fprintln(p.w)
	}
}
