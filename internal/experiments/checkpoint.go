package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// The checkpoint layer makes long grids restartable. A checkpoint file
// is JSONL: a header line naming the kind's format and the grid's
// fingerprint, then one completed row per line in completion order
// (duplicates allowed; the last line for a cell wins). Rows are
// appended — O(1) per settled cell — and every line ends with '\n',
// which makes the failure mode of a crash legible: the only damage a
// SIGKILL mid-append can do is one unterminated trailing line. Resume
// salvages around exactly that: complete lines are loaded, a torn tail
// is logged, cut off, and its cell re-run (deterministically
// reproducing the lost row). Damage anywhere else — a complete line
// that does not parse or does not belong to the grid — is not a crash
// signature and still fails loudly.
//
// The fingerprint ties a checkpoint to the exact grid that wrote it
// (see SweepAxes.Fingerprint and HuntAxes.Fingerprint); each kind has
// its own format string, so resuming one kind's grid from the other's
// file fails at the header, not at a row.

type checkpointHeader struct {
	Format      string
	Fingerprint string
	Cells       int
}

// checkpoint is the durable record of a grid in progress: completed
// rows keyed by cell index, appended to disk as they settle.
type checkpoint[A any, C comparable, R any] struct {
	k   *gridKind[A, C, R]
	out jsonlFile

	mu        sync.Mutex
	rows      map[int]R
	appends   int
	tamper    func(path string, appendN int) bool
	crashed   bool   // simulated writer death (fault injection)
	discarded string // torn trailing line salvaged away at open
	err       error  // first persistence failure; appends stop after it
}

// openCheckpoint opens (or starts) the checkpoint for a grid. A missing
// or empty file begins an empty checkpoint; an existing one must carry
// the kind's format, the axes' fingerprint and well-formed rows
// belonging to the grid, or the open fails — a checkpoint from a
// different grid is never merged. The one exception is the crash
// signature of the append discipline itself: an unterminated trailing
// line is salvaged — reported via Discarded, cut off the file, and its
// cell left to re-run — instead of failing the whole resume.
func openCheckpoint[A any, C comparable, R any](k *gridKind[A, C, R], path string, axes A) (*checkpoint[A, C, R], error) {
	axes = k.normalize(axes)
	cells := k.cells(axes)
	hdr := checkpointHeader{Format: k.format, Fingerprint: k.fingerprint(axes), Cells: len(cells)}
	hdrLine, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	cp := &checkpoint[A, C, R]{
		k:    k,
		out:  jsonlFile{path: path, what: "checkpoint", header: hdrLine},
		rows: map[int]R{},
	}
	cp.discarded, err = readJSONL(path, "checkpoint", func(line []byte) error {
		var got checkpointHeader
		if err := json.Unmarshal(line, &got); err != nil || got.Format != k.format {
			return fmt.Errorf("not a %s file", k.format)
		}
		if got.Fingerprint != hdr.Fingerprint {
			return fmt.Errorf("fingerprint %.12s… does not match this %s's %.12s… — "+
				"it was written by different axes (%s); "+
				"rerun with the original arguments or remove the file", got.Fingerprint, k.name, hdr.Fingerprint, k.axesNames)
		}
		return nil
	}, func(line []byte) error {
		var row R
		if err := json.Unmarshal(line, &row); err != nil {
			return err
		}
		i := k.index(row)
		if i < 0 || i >= len(cells) {
			return fmt.Errorf("cell index %d outside the %d-cell grid", i, len(cells))
		}
		if c := k.cellOf(row); c != cells[i] {
			return fmt.Errorf("cell %d does not match the grid (file %+v, grid %+v)", i, c, cells[i])
		}
		cp.rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// Discarded returns the torn trailing line openCheckpoint salvaged
// away, if any — callers surface it as a warning so the data loss
// (exactly one re-runnable cell) is visible, not silent.
func (c *checkpoint[A, C, R]) Discarded() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.discarded
}

// SetTamperer installs the fault-injection hook: after every successful
// append it receives the file path and the 1-based append count, and a
// true return simulates the writing process dying — the file is left
// exactly as the tamperer arranged it and every later append is
// silently dropped, which is what death looks like to the file.
func (c *checkpoint[A, C, R]) SetTamperer(fn func(path string, appendN int) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tamper = fn
}

// Completed returns the checkpointed rows that finished without error,
// keyed by cell index. Failed rows are deliberately excluded: resume
// re-runs them — a deterministic failure reproduces the identical row,
// and a transient one (a since-fixed config, a freed resource) gets its
// retry.
func (c *checkpoint[A, C, R]) Completed() map[int]R {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]R, len(c.rows))
	for i, r := range c.rows {
		if c.k.errOf(r) == "" {
			out[i] = r
		}
	}
	return out
}

// Append records a settled row and appends it to the file. Safe for
// concurrent use; after the first persistence failure further appends
// are dropped and Err reports the failure.
func (c *checkpoint[A, C, R]) Append(row R) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || c.crashed {
		return
	}
	c.rows[c.k.index(row)] = row
	line, err := json.Marshal(row)
	if err == nil {
		err = c.out.append(line)
	}
	if c.err = err; err != nil {
		return
	}
	c.appends++
	if c.tamper != nil && c.tamper(c.out.path, c.appends) {
		c.crashed = true
		c.out.close()
	}
}

// Err returns the first persistence failure, if any. A simulated crash
// from the tamper hook is not a failure — it is the scenario under
// test.
func (c *checkpoint[A, C, R]) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close releases the append handle. The file needs no finalization —
// every append left it complete.
func (c *checkpoint[A, C, R]) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.close()
}

// readJSONL loads a file written under the append discipline shared by
// checkpoints and the result cache: header receives the first line,
// line every later complete non-blank line. A missing or empty file
// reads as empty. An unterminated trailing line — the one shape a crash
// mid-append leaves — is cut off the file and returned as discarded; a
// file that is nothing but one unterminated line (a crash before the
// header's append completed) is emptied. Errors are prefixed with what
// and the path, and line errors with the 1-based line number.
func readJSONL(path, what string, header, line func([]byte) error) (discarded string, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) || (err == nil && len(data) == 0) {
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", what, path, err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		if err := os.Truncate(path, 0); err != nil {
			return "", fmt.Errorf("%s %s: cutting torn header: %w", what, path, err)
		}
		return string(data), nil
	}
	if err := header(data[:nl]); err != nil {
		return "", fmt.Errorf("%s %s: %w", what, path, err)
	}
	off := nl + 1
	rest := data[off:]
	for n := 2; len(rest) > 0; n++ {
		idx := bytes.IndexByte(rest, '\n')
		if idx < 0 {
			if err := os.Truncate(path, int64(off)); err != nil {
				return "", fmt.Errorf("%s %s: cutting torn line: %w", what, path, err)
			}
			return string(rest), nil
		}
		seg := rest[:idx]
		off += idx + 1
		rest = rest[idx+1:]
		if len(bytes.TrimSpace(seg)) == 0 {
			continue
		}
		if err := line(seg); err != nil {
			return "", fmt.Errorf("%s %s: line %d: %w", what, path, n, err)
		}
	}
	return "", nil
}

// jsonlFile is the append side of the same discipline: the file is
// opened lazily, the header is written first when it is empty, and
// every line goes out in one Write ending in '\n', so the only state a
// crash can leave behind is a torn final line — the shape readJSONL
// salvages. Callers serialize access.
type jsonlFile struct {
	path   string
	what   string // error prefix: "checkpoint", "result cache"
	header []byte
	f      *os.File
}

func (j *jsonlFile) append(line []byte) error {
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("%s %s: %w", j.what, j.path, err)
		}
		st, err := f.Stat()
		if err == nil && st.Size() == 0 {
			_, err = f.Write(append(j.header[:len(j.header):len(j.header)], '\n'))
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("%s %s: %w", j.what, j.path, err)
		}
		j.f = f
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("%s %s: %w", j.what, j.path, err)
	}
	return nil
}

func (j *jsonlFile) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
