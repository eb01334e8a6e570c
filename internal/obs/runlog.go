package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// RunLog is an append-only run journal: one line per run, each the
// run's manifest as compact JSON, written beside the CSVs so the
// journal travels with the results it describes. Safe for concurrent
// Record calls.
type RunLog struct {
	path string
	mu   sync.Mutex
	f    *os.File
}

// OpenRunLog opens (appending) or creates the journal at path.
func OpenRunLog(path string) (*RunLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: opening run journal: %w", err)
	}
	return &RunLog{path: path, f: f}, nil
}

// Path returns the journal's file path.
func (l *RunLog) Path() string { return l.path }

// Record appends the run's manifest as one JSON line, in a single
// write, and returns that write's error.
func (l *RunLog) Record(m *Manifest) error {
	line, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("obs: marshaling journal line: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("obs: writing run journal: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (l *RunLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("obs: closing run journal: %w", err)
	}
	return nil
}
