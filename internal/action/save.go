package action

import (
	"encoding/json"
	"fmt"
	"io"
)

// savedLog is the SAVE format, version 2: the complete action trail,
// verbatim, so a load replays exactly what the explorer did, in order,
// through the same Apply dispatcher live traffic uses.
type savedLog struct {
	Version int `json:"version"`
	// Miner and NumGroups guard against gross engine mismatch:
	// descriptions are the real identity, so a rebuilt space over
	// identical data replays identically.
	Miner     string   `json:"miner"`
	NumGroups int      `json:"numGroups"`
	Actions   []Action `json:"actions"`
}

// Save serializes the session's complete action log.
func (s *Session) Save(w io.Writer) error {
	eng := s.Sess.Engine()
	saved := savedLog{
		Version:   2,
		Miner:     eng.Miner,
		NumGroups: eng.Space.Len(),
		Actions:   s.Log,
	}
	if saved.Actions == nil {
		saved.Actions = []Action{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(saved)
}

// Load restores a saved trail into this (fresh) session by replaying
// its action log through Apply. Only version 2 files load; any other
// version is rejected. After a successful Load the session's log holds
// the replayed actions.
func (s *Session) Load(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("action: reading saved session: %w", err)
	}
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return fmt.Errorf("action: decoding saved session: %w", err)
	}
	if probe.Version != 2 {
		return fmt.Errorf("action: unsupported session version %d", probe.Version)
	}
	var saved savedLog
	if err := json.Unmarshal(raw, &saved); err != nil {
		return fmt.Errorf("action: decoding v2 session: %w", err)
	}

	eng := s.Sess.Engine()
	if saved.NumGroups != eng.Space.Len() {
		return fmt.Errorf("action: saved session has %d groups, engine has %d",
			saved.NumGroups, eng.Space.Len())
	}
	if saved.Miner != "" && saved.Miner != eng.Miner {
		return fmt.Errorf("action: saved session mined with %q, engine with %q",
			saved.Miner, eng.Miner)
	}
	s.Log = nil
	s.Mutations = 0
	s.Focus = nil
	if err := ApplyAllQuiet(s, saved.Actions); err != nil {
		return fmt.Errorf("action: replaying saved session: %w", err)
	}
	return nil
}
