package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"tinyevm"
)

// serveSeedParams holds one valid params object per row of the method
// table; FuzzServeHTTP refuses to start when a row has none.
var serveSeedParams = map[string]string{
	"tinyevm_provider":           `{}`,
	"tinyevm_addNode":            `{"name":"bike"}`,
	"tinyevm_registerSensor":     `{"node":"car","id":1,"value":2150}`,
	"tinyevm_openChannel":        `{"node":"car","peer":"provider","deposit":100,"sensorParam":0}`,
	"tinyevm_pay":                `{"node":"car","channel":1,"amount":5}`,
	"tinyevm_closeChannel":       `{"node":"car","channel":1}`,
	"tinyevm_channel":            `{"node":"car","channel":1}`,
	"tinyevm_channels":           `{"node":"car"}`,
	"tinyevm_deposit":            `{"node":"car","amount":10}`,
	"tinyevm_commit":             `{"node":"provider","channel":1}`,
	"tinyevm_exit":               `{"node":"car"}`,
	"tinyevm_settle":             `{"node":"provider"}`,
	"tinyevm_runChallengePeriod": `{}`,
	"tinyevm_balance":            `{"address":"provider"}`,
	"tinyevm_head":               `{}`,
	"tinyevm_nodeStatus":         `{}`,
	"tinyevm_node_status":        `{}`,
	"tinyevm_serviceStats":       `{}`,
	"tinyevm_storeStatus":        `{}`,
	"tinyevm_stateProof":         `{"address":"0x0000000000000000000000000000000000000001"}`,
	"tinyevm_blockHash":          `{"number":0}`,
	"tinyevm_subscribe":          `{"node":"car"}`,
	"tinyevm_poll":               `{"subscription":"sub-1","max":4,"timeoutMs":1}`,
	"tinyevm_unsubscribe":        `{"subscription":"sub-1"}`,
}

// FuzzServeHTTP sends hostile bodies through the whole gateway, one
// fresh in-memory service per input. Nothing may panic; the status is
// 200 or 204; a 200 body is one response object or an array of them,
// each "jsonrpc":"2.0" with exactly one of result and error; and a
// well-formed single call gets its own id back.
func FuzzServeHTTP(f *testing.F) {
	names := make([]string, 0, len(methods))
	for name := range methods {
		names = append(names, name)
	}
	sort.Strings(names)
	var batch []string
	for i, name := range names {
		params, ok := serveSeedParams[name]
		if !ok {
			f.Fatalf("method %s has no seed", name)
		}
		call := fmt.Sprintf(`{"jsonrpc":"2.0","id":%d,"method":%q,"params":%s}`, i+1, name, params)
		f.Add([]byte(call))
		batch = append(batch, call)
	}
	f.Add([]byte("[" + batch[0] + "," + batch[1] + `,{"jsonrpc":"2.0","method":"tinyevm_head"},7,{},` + batch[2] + "]"))
	for _, body := range []string{
		``, `{`, `[]`, `[`, `null`, `"x"`, `42`, `{}`, `[{}]`, `[[]]`, `[1,2,3]`,
		`{"jsonrpc":"1.0","id":1,"method":"tinyevm_head"}`,
		`{"jsonrpc":"2.0","id":{"a":[1,"<&>"]},"method":"tinyevm_head"}`,
		`{"jsonrpc":"2.0","id":"x","method":"tinyevm_nope"}`,
		`{"jsonrpc":"2.0","id":1,"method":"tinyevm_pay","params":{"bogus":true}}`,
		`{"jsonrpc":"2.0","id":1,"method":"tinyevm_pay","params":[1,2]}`,
		`{"jsonrpc":"2.0","id":1,"method":"tinyevm_poll","params":{"subscription":"sub-1","timeoutMs":60000}}`,
		`[{"jsonrpc":"2.0","method":"tinyevm_head"}]`,
		"\xff\xfe{}",
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		svc, provider, err := tinyevm.NewService("provider")
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		car, err := svc.AddNode(context.Background(), "car")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []*tinyevm.ServiceNode{provider, car} {
			n.RegisterSensor(tinyevm.SensorTemperature, func(uint64) (uint64, error) { return DefaultSensorValue, nil })
		}

		// The deadline bounds tinyevm_poll, which would otherwise wait
		// up to maxPollTimeout for an event.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		NewServer(svc).ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusNoContent:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		out := bytes.TrimSpace(rec.Body.Bytes())
		var objs []map[string]json.RawMessage
		if len(out) > 0 && out[0] == '[' {
			if err := json.Unmarshal(out, &objs); err != nil || len(objs) == 0 {
				t.Fatalf("batch reply %q: %v", out, err)
			}
		} else {
			var one map[string]json.RawMessage
			if err := json.Unmarshal(out, &one); err != nil || one == nil {
				t.Fatalf("reply %q is not an object: %v", out, err)
			}
			objs = append(objs, one)
		}
		for _, o := range objs {
			_, hasResult := o["result"]
			_, hasError := o["error"]
			if string(o["jsonrpc"]) != `"2.0"` || hasResult == hasError {
				t.Fatalf("malformed response object %q", out)
			}
		}

		var call request
		if out[0] == '[' || json.Unmarshal(body, &call) != nil || call.Version != "2.0" || call.Method == "" {
			return
		}
		want := call.ID
		if len(want) == 0 {
			want = json.RawMessage("null")
		}
		if !sameJSON(t, want, objs[0]["id"]) {
			t.Fatalf("reply id %s, request id %s", objs[0]["id"], want)
		}
	})
}

// sameJSON compares two JSON values by meaning, numbers by their text.
func sameJSON(t *testing.T, a, b json.RawMessage) bool {
	t.Helper()
	decode := func(raw json.RawMessage) any {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("id %q: %v", raw, err)
		}
		return v
	}
	return reflect.DeepEqual(decode(a), decode(b))
}
