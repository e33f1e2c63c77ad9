package membership

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestAuth(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })

	// Empty secret: gate is a pass-through.
	h := Require("", ok)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/internal/cluster/sessions", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("no-secret gate: %d", rec.Code)
	}

	h = Require("s3cret", ok)
	for _, tc := range []struct {
		name, got string
		want      int
	}{
		{"missing", "", http.StatusUnauthorized},
		{"wrong", "nope", http.StatusUnauthorized},
		{"right", "s3cret", http.StatusOK},
	} {
		req := httptest.NewRequest(http.MethodGet, "/internal/cluster/sessions", nil)
		if tc.got != "" {
			req.Header.Set(SecretHeader, tc.got)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Fatalf("%s secret: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}
