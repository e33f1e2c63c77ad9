package action

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzDecodeLog feeds DecodeLog arbitrary bytes: the body of every
// POST /api/v1/sessions/{sid}/actions and every -script file goes
// through it. It must never panic, and every log it accepts must
// survive EncodeLog → DecodeLog with actions deeply equal to the first
// decode, so a stored trail replays exactly what was accepted.
// Regression seeds live in testdata/fuzz/FuzzDecodeLog.
func FuzzDecodeLog(f *testing.F) {
	script, err := os.ReadFile("../../examples/scripts/expert-set.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(script)
	// The CI smokes' batches: one explore, and the v1 smoke's three.
	f.Add([]byte(`[{"op":"explore","group":3}]`))
	f.Add([]byte(`[{"op":"explore","group":0},{"op":"bookmarkGroup","group":0},{"op":"unlearn","field":"gender","value":"male"}]`))
	// A v2 save file: the header is tolerated, the actions decoded.
	f.Add([]byte(`{"version":2,"miner":"lcm","numGroups":12,"actions":[{"op":"start"},{"op":"startFrom","groups":[1,2]},{"op":"focus","group":1,"class":"gender"},{"op":"brush","attr":"gender"},{"op":"unlearnUser","user":"a1"},{"op":"bookmarkUser","user":"a2"},{"op":"backtrack","step":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		acts, err := DecodeLog(data)
		if err != nil {
			return
		}
		enc, err := EncodeLog(acts)
		if err != nil {
			t.Fatalf("accepted log does not encode: %v\n%q", err, data)
		}
		again, err := DecodeLog(enc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v\ninput %q", enc, err, data)
		}
		if !reflect.DeepEqual(again, acts) {
			t.Fatalf("round trip changed the log:\n got %#v\nwant %#v\ninput %q", again, acts, data)
		}
	})
}

// EncodeLog renders a bare action array, indented — the -script input
// format of the vexus CLI.
func EncodeLog(acts []Action) ([]byte, error) {
	return json.MarshalIndent(acts, "", "  ")
}
