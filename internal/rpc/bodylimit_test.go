package rpc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tinyevm"
)

// TestOversizeBodyRefused: a body longer than maxBody is refused whole.
// The request below is a valid call padded with spaces to exactly
// maxBody bytes and followed by bytes that are not JSON; reading only
// the first maxBody bytes would parse and execute the call.
func TestOversizeBodyRefused(t *testing.T) {
	svc, _, err := tinyevm.NewService("provider")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	hts := httptest.NewServer(NewServer(svc))
	defer hts.Close()

	call := []byte(`{"jsonrpc":"2.0","id":1,"method":"tinyevm_addNode","params":{"name":"smuggled"}}`)
	body := append(call, bytes.Repeat([]byte(" "), maxBody-len(call))...)
	body = append(body, "0123456789abcdef"...)

	resp, err := http.Post(hts.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == nil || out.Error.Code != codeInvalidRequest ||
		!strings.Contains(out.Error.Message, "1048576 bytes") {
		t.Fatalf("over-size body: got error %+v, want invalid request naming the %d-byte limit", out.Error, maxBody)
	}
	if _, ok := svc.Node("smuggled"); ok {
		t.Fatal("the truncated prefix of an over-size body was executed")
	}
}
