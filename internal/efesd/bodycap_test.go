package efesd

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"efes/internal/scenario"
)

// jsonStringBody streams a JSON object whose one string field makes the
// body n bytes long, without holding the body in memory; read counts the
// bytes handed out.
type jsonStringBody struct {
	n, read int
}

const jsonStringPrefix, jsonStringSuffix = `{"scenario": "`, `"}`

var jsonStringFill = bytes.Repeat([]byte("x"), 32<<10)

func (b *jsonStringBody) Read(p []byte) (int, error) {
	fillEnd := b.n - len(jsonStringSuffix)
	var k int
	switch {
	case b.read == b.n:
		return 0, io.EOF
	case b.read < len(jsonStringPrefix):
		k = copy(p, jsonStringPrefix[b.read:])
	case b.read < fillEnd:
		k = copy(p[:min(len(p), fillEnd-b.read)], jsonStringFill)
	default:
		k = copy(p, jsonStringSuffix[b.read-fillEnd:])
	}
	b.read += k
	return k, nil
}

// TestRequestBodyCapRefusesOversizedBodies sends each POST endpoint a
// body of maxBody+1 bytes. Declared with its length, it is answered 413
// before any of it is read; streamed without one, decoding stops at the
// cap, also with 413.
func TestRequestBodyCapRefusesOversizedBodies(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/scenarios", "/v1/estimate", "/v1/profile", "/v1/match"} {
		body := &jsonStringBody{n: maxBody + 1}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = maxBody + 1
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: declared oversized body status = %d, want 413: %s", path, rec.Code, rec.Body)
		}
		if body.read != 0 {
			t.Errorf("%s: read %d bytes of a body declared over the cap", path, body.read)
		}
	}
	// One endpoint suffices for the streamed case: all four decode
	// through decodeBody, which the declared case above reaches.
	body := &jsonStringBody{n: maxBody + 1}
	req := httptest.NewRequest(http.MethodPost, "/v1/scenarios", body)
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("streamed oversized body status = %d, want 413: %s", rec.Code, rec.Body)
	}
}

// TestPaperScaleUploadUnderDefaultCap uploads the running example at
// published size: it must load, with room to spare under the body cap.
func TestPaperScaleUploadUnderDefaultCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := renderUpload(t, scenario.MusicExample(scenario.PaperExampleConfig()))
	if len(body) > maxBody/4 {
		t.Errorf("paper-scale upload is %d bytes, within 4x of the %d-byte cap", len(body), maxBody)
	}
	resp, data := post(t, ts.URL+"/v1/scenarios", body, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("paper-scale upload status = %d: %s", resp.StatusCode, data)
	}
}
