package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/api"
	"repro/internal/core"
)

// TestStrictBodies: every JSON request route decodes its body as exactly
// one document. A valid body followed by garbage or by a second
// document, or carrying an unknown field, is a 400 bad_request from a
// node and, with the node's message, from a 1-peer front, and nothing
// is stored, queued or mined. A scene upload ignores unknown keys, as it
// always has, so only the first two apply to it. Each valid body is
// then accepted, so the 400s are the bytes' doing.
func TestStrictBodies(t *testing.T) {
	node := New(Options{Workers: 1})
	nodeTS := httptest.NewServer(node.Handler())
	t.Cleanup(nodeTS.Close)
	t.Cleanup(func() { node.Shutdown(context.Background()) })
	front, err := NewProxy(ProxyOptions{Peers: []string{nodeTS.URL}})
	if err != nil {
		t.Fatal(err)
	}
	frontTS := httptest.NewServer(front.Handler())
	t.Cleanup(frontTS.Close)
	client := nodeTS.Client()

	scene := sampleSceneJSON(t)
	var info datasetInfo
	if status, raw := doJSON(t, client, "POST", nodeTS.URL+"/v1/datasets/scene", scene, &info); status != http.StatusCreated {
		t.Fatalf("upload: %d %s", status, raw)
	}
	mine := mineBody(t, info.Digest, core.Config{MinSupport: 0.5})
	colocate := []byte(fmt.Sprintf(`{"dataset":%q,"config":{"distance":3,"minPI":0.2}}`, info.Digest))
	patch := []byte(`{"ops":[{"action":"insert","layer":"slum","id":"slumX","wkt":"POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))"}]}`)
	routes := []struct {
		method, path string
		body         []byte
		want         int  // the valid body's status
		lenient      bool // unknown keys are ignored
	}{
		{"POST", "/v1/mine", mine, http.StatusOK, false},
		{"POST", "/v1/jobs", mine, http.StatusAccepted, false},
		{"POST", "/v1/colocate", colocate, http.StatusOK, false},
		{"POST", "/v1/colocate/jobs", colocate, http.StatusAccepted, false},
		{"POST", "/v1/datasets/scene", scene, http.StatusCreated, true},
		{"PATCH", "/v1/datasets/" + info.Digest, patch, http.StatusCreated, false},
	}

	// state is everything a request that got past its decoder could move.
	state := func() string {
		c := node.Metrics().Obs.Counters
		return fmt.Sprintf("datasets=%d jobs=%+v submitted=%d mine=%d colocate=%d patches=%d uploads=%d",
			len(node.store.List()), node.jobs.Stats(), c["server.jobs.submitted"], c["server.mine.runs"],
			c["server.colocate.runs"], c["server.datasets.patches"], c["server.datasets.scene_uploads"])
	}
	before := state()
	nodeSaid := map[string]string{} // route and case -> the node's message
	for _, target := range []struct{ name, base string }{{"node", nodeTS.URL}, {"front", frontTS.URL}} {
		for _, rt := range routes {
			bad := map[string][]byte{
				"garbage":         append(slices.Clone(rt.body), " trailing"...),
				"second document": append(slices.Clone(rt.body), rt.body...),
			}
			if !rt.lenient {
				bad["unknown field"] = append([]byte(`{"bogus":1,`), rt.body[1:]...)
			}
			for name, body := range bad {
				status, raw := doJSON(t, client, rt.method, target.base+rt.path, body, nil)
				if status != http.StatusBadRequest {
					t.Errorf("%s %s %s with %s: status %d, want 400: %s", target.name, rt.method, rt.path, name, status, raw)
					continue
				}
				eb := decodeEnvelope(t, raw)
				if eb.Code != api.CodeBadRequest {
					t.Errorf("%s %s %s with %s: code %q, want bad_request", target.name, rt.method, rt.path, name, eb.Code)
				}
				if said, ok := nodeSaid[rt.path+name]; !ok {
					nodeSaid[rt.path+name] = eb.Message
				} else if eb.Message != said {
					t.Errorf("front %s %s with %s: %q, the node said %q", rt.method, rt.path, name, eb.Message, said)
				}
			}
		}
	}
	if after := state(); after != before {
		t.Errorf("rejected bodies changed the node:\nbefore %s\nafter  %s", before, after)
	}
	for _, rt := range routes {
		if status, raw := doJSON(t, client, rt.method, nodeTS.URL+rt.path, rt.body, nil); status != rt.want {
			t.Errorf("valid %s %s: status %d, want %d: %s", rt.method, rt.path, status, rt.want, raw)
		}
	}
}

// TestFrontRouteParity: a front serves exactly a node's endpoints, the
// same (method, pattern) pairs, each once.
func TestFrontRouteParity(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background())
	p, err := NewProxy(ProxyOptions{Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	pairs := func(table []route) []string {
		var out []string
		for _, rt := range table {
			out = append(out, rt.Method+" "+rt.V1)
		}
		slices.Sort(out)
		if len(slices.Compact(slices.Clone(out))) != len(out) {
			t.Errorf("a route is listed twice: %v", out)
		}
		return out
	}
	if node, front := pairs(s.routeTable()), pairs(p.routeTable()); !slices.Equal(node, front) {
		t.Errorf("front routes differ from a node's:\nnode  %v\nfront %v", node, front)
	}
}
