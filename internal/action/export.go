package action

import (
	"fmt"

	"vexus/internal/core"
	"vexus/internal/greedy"
)

// This file is the migration surface of the action layer: a session is
// fully described by its applied-action log (Save/Load serialize it),
// so moving a session between processes is export + replay. Replay
// re-applies the trail through the same Apply dispatcher live traffic
// uses, which makes the re-applied state deterministic whenever the
// optimizer config is — greedy selection must not be wall-clock
// bounded (greedy.Config.TimeLimit = 0), exactly the precondition the
// repo's save/load replay and worker-equivalence tests already state.

// Replay builds a fresh session over eng and re-applies the trail.
// After a successful replay the session's log equals the trail and its
// mutation counter equals the trail length — byte-identical state and
// validator to the session the trail was exported from, provided eng
// is bit-identical to the source engine (the store/build determinism
// contract) and cfg is deterministic.
func Replay(eng *core.Engine, cfg greedy.Config, acts []Action) (*Session, error) {
	s := New(eng, cfg)
	if err := ApplyAllQuiet(s, acts); err != nil {
		return nil, fmt.Errorf("action: replaying trail: %w", err)
	}
	return s, nil
}
