package accessserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"batterylab/internal/api"
)

func get(t *testing.T, url, token string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPAuthRequired: a missing or unknown bearer token is 401 on the
// v1 routes, read and write alike.
func TestHTTPAuthRequired(t *testing.T) {
	v := newV1Rig(t)
	paths := []struct{ method, path string }{
		{"GET", "/api/v1/nodes"},
		{"GET", fmt.Sprintf("/api/v1/builds/%d", v.doneBuild)},
		{"POST", fmt.Sprintf("/api/v1/builds/%d/cancel", v.doneBuild)},
	}
	for _, token := range []string{"", "wrong-token"} {
		for _, p := range paths {
			resp := v.request(t, p.method, p.path, token, "")
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s %s with token %q: status %d, want 401", p.method, p.path, token, resp.StatusCode)
			}
		}
	}
}

// TestHTTPNodesAndDevices: the v1 node listing names the registered
// vantage point with its devices.
func TestHTTPNodesAndDevices(t *testing.T) {
	v := newV1Rig(t)
	resp := v.request(t, "GET", "/api/v1/nodes", v.exp.Token, "")
	defer resp.Body.Close()
	var nodes []api.NodeInfo
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Name != "node1" || len(nodes[0].Devices) != 1 {
		t.Fatalf("nodes = %+v, want node1 with its one device", nodes)
	}
}

// TestHTTPBadBuildID: every v1 build route answers 400 for a
// non-integer id and 404 for an unknown one.
func TestHTTPBadBuildID(t *testing.T) {
	v := newV1Rig(t)
	for _, route := range []struct{ method, suffix string }{
		{"GET", ""}, {"GET", "/artifacts"}, {"GET", "/artifacts/hello.txt"}, {"POST", "/cancel"},
	} {
		for id, want := range map[string]int{"abc": http.StatusBadRequest, "999": http.StatusNotFound} {
			resp := v.request(t, route.method, "/api/v1/builds/"+id+route.suffix, v.admin.Token, "")
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s /api/v1/builds/%s%s: status %d, want %d", route.method, id, route.suffix, resp.StatusCode, want)
			}
		}
	}
}
