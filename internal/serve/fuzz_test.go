package serve

import (
	"math/big"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzETagMatches feeds the If-None-Match check arbitrary header and
// validator strings. It must never panic, and it matches exactly when
// the trimmed header is "*" or one of its non-empty comma-separated
// members, trimmed and with a W/ prefix dropped, equals the validator
// with a W/ prefix dropped.
func FuzzETagMatches(f *testing.F) {
	for _, seed := range [][2]string{
		{"", `"a.1"`},
		{"*", `"a.1"`},
		{"  *  ", `"a.1"`},
		{`"a.1"`, `"a.1"`},
		{`W/"a.1"`, `"a.1"`},
		{`"a.1"`, `W/"a.1"`},
		{`"x", W/"a.1"`, `"a.1"`},
		{`"x", *`, `"a.1"`},
		{`, "a.1"`, `"a.1"`},
		{",,", ""},
		{"\t\"a.1\" ", `"a.1"`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, header, etag string) {
		want := false
		if trimmed := strings.TrimSpace(header); trimmed == "*" {
			want = true
		} else {
			current := strings.TrimPrefix(etag, "W/")
			members := strings.FieldsFunc(trimmed, func(r rune) bool { return r == ',' })
			for _, m := range members {
				m = strings.TrimPrefix(strings.TrimSpace(m), "W/")
				want = want || (m != "" && m == current)
			}
		}
		if got := etagMatches(header, etag); got != want {
			t.Fatalf("etagMatches(%q, %q) = %v, want %v", header, etag, got, want)
		}
	})
}

// FuzzLastEventID feeds the SSE resume cursor arbitrary Last-Event-ID
// headers and ?lastEventID= values. It must never panic; a non-empty
// header wins over the query parameter, and the cursor is accepted
// only when the winning value is a decimal uint64 (digits only, no
// sign or spaces, at most 2^64-1).
func FuzzLastEventID(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""},
		{"7", ""},
		{"", "7"},
		{"7", "9"},
		{"18446744073709551615", ""},
		{"", "-1"},
		{"+1", ""},
		{" 1", ""},
		{"0x10", ""},
		{"", "1_000"},
	} {
		f.Add(seed[0], seed[1])
	}
	maxU64 := new(big.Int).SetUint64(^uint64(0))
	f.Fuzz(func(t *testing.T, header, query string) {
		r := httptest.NewRequest("GET", "/api/v1/sessions/s/events", nil)
		r.URL.RawQuery = url.Values{"lastEventID": {query}}.Encode()
		if header != "" {
			r.Header.Set("Last-Event-ID", header)
		}

		raw := header
		if raw == "" {
			raw = query
		}
		wantOK := raw != "" && strings.Trim(raw, "0123456789") == ""
		want := new(big.Int)
		if wantOK {
			want.SetString(raw, 10)
			wantOK = want.Cmp(maxU64) <= 0
		}

		got, ok := lastEventID(r)
		if ok != wantOK {
			t.Fatalf("lastEventID(header %q, query %q) ok = %v, want %v", header, query, ok, wantOK)
		}
		if ok && got != want.Uint64() {
			t.Fatalf("lastEventID(header %q, query %q) = %d, want %s", header, query, got, want)
		}
		if !ok && got != 0 {
			t.Fatalf("lastEventID(header %q, query %q) rejected with cursor %d", header, query, got)
		}
	})
}
