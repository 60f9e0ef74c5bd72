package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/api"
	"repro/client"
	"repro/internal/colocation"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mining"
	"repro/internal/server"
)

// cliDoc decodes a document in the CLI's schema without its wall time,
// the one field two runs may differ on.
func cliDoc(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%v: %s", err, data)
	}
	delete(doc, "miningMicros")
	return doc
}

// TestRunMatchesServedDocuments is the CLI's leg of the cross-surface
// differential test (TestCrossSurfaceDocuments in internal/server, whose
// requests these are): a scene mine, a table mine with rules and a
// co-location request through run() -format json must give what a node
// serves, on what the CLI's schema carries. By design that schema has
// no dataset field, no cache flag and no size-1 itemsets.
func TestRunMatchesServedDocuments(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	save := func(name string, write func(io.Writer) error) (string, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path, buf.Bytes()
	}
	scene, err := datagen.GenerateScene(datagen.DefaultScene(6, 5, 31))
	if err != nil {
		t.Fatal(err)
	}
	points, err := datagen.GenerateColocationScene(datagen.DefaultColocationScene(7))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := datagen.PaperDataset1(7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	scenePath, sceneBody := save("scene.json", scene.WriteJSON)
	pointsPath, pointsBody := save("points.json", points.WriteJSON)
	tablePath, tableBody := save("table.csv", tab.WriteTableCSV)
	var deps []mining.Pair
	var depsFlag []string
	for _, p := range datagen.Dataset1Dependencies {
		deps = append(deps, mining.Pair{A: p.A, B: p.B})
		depsFlag = append(depsFlag, p.A+":"+p.B)
	}

	s := server.New(server.Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(ctx)
	c := client.New(ts.URL)

	// mined projects a served mining document onto the CLI's schema.
	mined := func(resp *api.MineResponse) any {
		out := jsonOutput{
			Algorithm:         resp.Algorithm,
			Transactions:      resp.Transactions,
			MinSupportCount:   resp.MinSupportCount,
			PrunedDeps:        resp.PrunedDeps,
			PrunedSameFeature: resp.PrunedSameFeature,
		}
		for _, f := range resp.Frequent {
			if len(f.Items) >= 2 {
				out.Frequent = append(out.Frequent, jsonItemset{Items: f.Items, Support: f.Support})
			}
		}
		for _, r := range resp.Rules {
			out.Rules = append(out.Rules, jsonRule(r))
		}
		return &out
	}
	cases := []struct {
		name   string
		kind   api.DatasetKind
		body   []byte
		args   []string
		served func(digest string) (*api.MineResponse, error)
		schema func(*api.MineResponse) any
	}{
		{"scene mine", api.KindScene, sceneBody,
			[]string{"-data", scenePath, "-alg", "apriori-kc+", "-minsup", "0.25"},
			func(d string) (*api.MineResponse, error) {
				return c.Mine(ctx, api.MineRequest{Dataset: d, Config: core.Config{Algorithm: core.AlgAprioriKCPlus, MinSupport: 0.25}})
			}, mined},
		{"table mine with rules", api.KindTable, tableBody,
			[]string{"-table", tablePath, "-alg", "eclat-kc+", "-minsup", "0.02", "-rules", "-minconf", "0.6", "-deps", strings.Join(depsFlag, ",")},
			func(d string) (*api.MineResponse, error) {
				return c.Mine(ctx, api.MineRequest{Dataset: d, Config: core.Config{Algorithm: core.AlgEclatKCPlus, MinSupport: 0.02,
					GenerateRules: true, MinConfidence: 0.6, Dependencies: deps}})
			}, mined},
		{"colocate", api.KindScene, pointsBody,
			[]string{"-data", pointsPath, "-colocate", "-dist", "1", "-minpi", "0.3"},
			func(d string) (*api.MineResponse, error) {
				return c.Colocate(ctx, api.ColocateRequest{Dataset: d, Config: colocation.Config{Distance: 1, MinPI: 0.3}})
			},
			func(resp *api.MineResponse) any {
				cr := resp.Colocation
				out := colocJSONOutput{Distance: cr.Distance, MinPI: cr.MinPI, Types: cr.Types, Instances: cr.Instances,
					CandidatePairs: cr.CandidatePairs, RefinedPairs: cr.RefinedPairs}
				for _, p := range cr.Prevalent {
					out.Prevalent = append(out.Prevalent, colocJSONItem(p))
				}
				return &out
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info, err := c.UploadDataset(ctx, tc.kind, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := tc.served(info.Digest)
			if err != nil {
				t.Fatal(err)
			}
			var stdout bytes.Buffer
			if err := run(append(tc.args, "-format", "json"), &stdout, io.Discard); err != nil {
				t.Fatal(err)
			}
			served, err := json.Marshal(tc.schema(resp))
			if err != nil {
				t.Fatal(err)
			}
			got, want := cliDoc(t, stdout.Bytes()), cliDoc(t, served)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("run() document differs from the served one:\n%s\nwant\n%s", stdout.Bytes(), served)
			}
			frequent, _ := want["frequent"].([]any)
			prevalent, _ := want["prevalent"].([]any)
			if len(frequent)+len(prevalent) == 0 || (tc.kind == api.KindTable && len(resp.Rules) == 0) {
				t.Error("the request mines too little to compare")
			}
		})
	}
}
