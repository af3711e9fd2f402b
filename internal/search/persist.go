package search

import (
	"encoding/json"
	"fmt"
	"io"

	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
)

// WriteJSONFS saves the log to path so the analytics and post-training CLIs
// can consume a search run produced by cmd/nas-search. The write is atomic
// (temp file + rename): a crash mid-write leaves any previous log intact
// rather than a truncated JSON prefix.
func (l *Log) WriteJSONFS(fsys fsim.FS, path string) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return fmt.Errorf("search: marshal log: %w", err)
	}
	return ckpt.AtomicWriteFS(fsys, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// LoadLogFS reads a log written by WriteJSONFS. A truncated or corrupt file
// — including valid JSON that is not a search log — yields a descriptive
// error rather than a zero-valued Log.
func LoadLogFS(fsys fsim.FS, path string) (*Log, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Log
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("search: parse log %s: %w", path, err)
	}
	if err := l.validate(); err != nil {
		return nil, fmt.Errorf("search: invalid log %s: %w", path, err)
	}
	return &l, nil
}

// validate checks the fields every well-formed log must carry.
func (l *Log) validate() error {
	switch l.Config.Strategy {
	case A3C, A2C, RDM, EVO:
	case "":
		return fmt.Errorf("missing config.Strategy (truncated or non-log JSON?)")
	default:
		return fmt.Errorf("unknown strategy %q", l.Config.Strategy)
	}
	if l.Config.Agents <= 0 {
		return fmt.Errorf("config.Agents = %d, want > 0", l.Config.Agents)
	}
	if l.Bench == "" {
		return fmt.Errorf("missing benchmark name")
	}
	return nil
}
