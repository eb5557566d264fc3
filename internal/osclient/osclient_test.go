package osclient

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/paper"
)

// wiredCloud returns a client wired in memory to a seeded cloud.
func wiredCloud(t *testing.T) (*Client, string) {
	t.Helper()
	cloud := openstack.New(openstack.Config{})
	res := cloud.ApplySeed(openstack.Seed{
		ProjectName: "p",
		Quota:       cinder.QuotaSet{Volumes: 5, Gigabytes: 100},
		GroupRoles:  paper.GroupRole(),
		Users: []openstack.SeedUser{
			{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
		},
	})
	c := New("http://cloud.internal")
	c.HTTPClient = httpkit.HandlerClient(cloud)
	return c, res.ProjectID
}

func TestAuthenticateInstallsToken(t *testing.T) {
	c, pid := wiredCloud(t)
	tok, err := c.Authenticate("alice", "pw", pid)
	if err != nil {
		t.Fatal(err)
	}
	if tok == "" || c.Token != tok {
		t.Errorf("token not installed: %q vs %q", tok, c.Token)
	}
}

func TestAuthenticateFailure(t *testing.T) {
	c, pid := wiredCloud(t)
	_, err := c.Authenticate("alice", "wrong", pid)
	if !IsStatus(err, http.StatusUnauthorized) {
		t.Errorf("err = %v, want 401", err)
	}
}

func TestStatusError(t *testing.T) {
	err := &StatusError{Status: 403, Message: "no"}
	if err.Error() != "http 403: no" {
		t.Errorf("Error() = %q", err.Error())
	}
	if !IsStatus(err, 403) || IsStatus(err, 404) || IsStatus(nil, 403) {
		t.Error("IsStatus misbehaves")
	}
}

func TestVolumeCRUDThroughClient(t *testing.T) {
	c, pid := wiredCloud(t)
	if _, err := c.Authenticate("alice", "pw", pid); err != nil {
		t.Fatal(err)
	}
	v, status, err := c.CreateVolume(pid, "data", 3)
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("CreateVolume = %v, %d", err, status)
	}
	got, _, err := c.GetVolume(pid, v.ID)
	if err != nil || got.SizeGB != 3 {
		t.Fatalf("GetVolume = %+v, %v", got, err)
	}
	vols, _, err := c.ListVolumes(pid)
	if err != nil || len(vols) != 1 {
		t.Fatalf("ListVolumes = %v, %v", vols, err)
	}
	upd, _, err := c.UpdateVolume(pid, v.ID, "renamed")
	if err != nil || upd.Name != "renamed" {
		t.Fatalf("UpdateVolume = %+v, %v", upd, err)
	}
	q, _, err := c.GetQuota(pid)
	if err != nil || q.Volumes != 5 {
		t.Fatalf("GetQuota = %+v, %v", q, err)
	}
	if _, err := c.SetQuota(pid, cinder.QuotaSet{Volumes: 7, Gigabytes: 100}); err != nil {
		t.Fatal(err)
	}
	status, err = c.DeleteVolume(pid, v.ID)
	if err != nil || status != http.StatusNoContent {
		t.Fatalf("DeleteVolume = %d, %v", status, err)
	}
}

func TestComputeThroughClient(t *testing.T) {
	c, pid := wiredCloud(t)
	if _, err := c.Authenticate("alice", "pw", pid); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.CreateVolume(pid, "data", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, status, err := c.CreateServer(pid, "web")
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("CreateServer = %v, %d", err, status)
	}
	servers, _, err := c.ListServers(pid)
	if err != nil || len(servers) != 1 || servers[0].ID != srv.ID {
		t.Fatalf("ListServers = %v, %v", servers, err)
	}
	gotSrv, _, err := c.GetServer(pid, srv.ID)
	if err != nil || gotSrv.Name != "web" {
		t.Fatalf("GetServer = %+v, %v", gotSrv, err)
	}
	if _, _, err := c.GetServer(pid, "ghost"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("ghost server = %v, want 404", err)
	}
	if _, err := c.AttachVolume(pid, srv.ID, v.ID); err != nil {
		t.Fatal(err)
	}
	got, _, _ := c.GetVolume(pid, v.ID)
	if got.Status != cinder.StatusInUse {
		t.Errorf("status = %q after attach", got.Status)
	}
	if _, err := c.DetachVolume(pid, srv.ID, v.ID); err != nil {
		t.Fatal(err)
	}
	status, err = c.DeleteServer(pid, srv.ID)
	if err != nil || status != http.StatusNoContent {
		t.Fatalf("DeleteServer = %d, %v", status, err)
	}
	if _, err := c.DeleteServer(pid, srv.ID); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("double delete = %v, want 404", err)
	}
}

func TestProjectLookup(t *testing.T) {
	c, pid := wiredCloud(t)
	if _, err := c.Authenticate("alice", "pw", pid); err != nil {
		t.Fatal(err)
	}
	p, status, err := c.GetProject(pid)
	if err != nil || status != http.StatusOK || p.Name != "p" {
		t.Fatalf("GetProject = %+v, %d, %v", p, status, err)
	}
	if _, _, err := c.GetProject("ghost"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("ghost project = %v, want 404", err)
	}
}

func TestValidateToken(t *testing.T) {
	c, pid := wiredCloud(t)
	tok, err := c.Authenticate("alice", "pw", pid)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := c.ValidateToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved.Roles) != 1 || resolved.Roles[0] != paper.RoleAdmin {
		t.Errorf("roles = %v", resolved.Roles)
	}
	if _, err := c.ValidateToken("bogus"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("bogus subject = %v, want 404", err)
	}
}

func TestWithTokenIsCopy(t *testing.T) {
	c := New("http://x")
	c2 := c.WithToken("tok")
	if c.Token != "" {
		t.Error("WithToken mutated the original")
	}
	if c2.Token != "tok" || c2.BaseURL != c.BaseURL {
		t.Errorf("copy = %+v", c2)
	}
}

func TestDoErrorPaths(t *testing.T) {
	c, pid := wiredCloud(t)
	if _, err := c.Authenticate("alice", "pw", pid); err != nil {
		t.Fatal(err)
	}
	// 404 surfaces as StatusError with the OpenStack error message.
	_, status, err := c.GetVolume(pid, "ghost")
	if !IsStatus(err, http.StatusNotFound) || status != http.StatusNotFound {
		t.Errorf("GetVolume ghost = %d, %v", status, err)
	}
	se, ok := err.(*StatusError)
	if !ok || se.Message == "" {
		t.Errorf("error message not extracted: %v", err)
	}
	// Unreachable host yields a transport error, not a StatusError.
	lost := New("http://127.0.0.1:1")
	if _, err := lost.Do(http.MethodGet, "/x", nil, nil, nil); err == nil {
		t.Error("unreachable host should error")
	} else if IsStatus(err, 0) {
		t.Error("transport error must not be a StatusError")
	}
}

// roundTripFunc serves a scripted response.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// scripted returns a client whose every request gets status and body,
// with the declared Content-Length (-1 for unknown).
func scripted(status int, body []byte, contentLength int64) *Client {
	c := New("http://cloud.internal")
	c.HTTPClient = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode:    status,
			Header:        make(http.Header),
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: contentLength,
			Request:       r,
		}, nil
	})}
	return c
}

// TestDoRawBody: an out of type *[]byte receives a 2xx body verbatim,
// read into a buffer sized by Content-Length when it is declared and
// capped at 1 MiB either way; errors are unchanged.
func TestDoRawBody(t *testing.T) {
	body := []byte(`{"volumes": [{"id": "a"}, {"id": "b"}]}`)
	for _, cl := range []int64{int64(len(body)), -1} {
		var raw []byte
		if _, err := scripted(http.StatusOK, body, cl).Do(http.MethodGet, "/x", nil, &raw, nil); err != nil {
			t.Fatalf("content-length %d: %v", cl, err)
		}
		if !bytes.Equal(raw, body) {
			t.Fatalf("content-length %d: raw %q, want %q", cl, raw, body)
		}
		if cl >= 0 && cap(raw) != len(body) {
			t.Fatalf("declared length %d read into a %d-byte buffer", cl, cap(raw))
		}
	}

	big := bytes.Repeat([]byte("x"), maxBody+10)
	var raw []byte
	if _, err := scripted(http.StatusOK, big, -1).Do(http.MethodGet, "/x", nil, &raw, nil); err != nil || len(raw) != maxBody {
		t.Fatalf("oversized body: %d bytes, err %v; want the first %d", len(raw), err, maxBody)
	}
	raw = nil
	if _, err := scripted(http.StatusOK, big, int64(len(big))).Do(http.MethodGet, "/x", nil, &raw, nil); err != nil || len(raw) != maxBody {
		t.Fatalf("oversized declared body: %d bytes, err %v; want the first %d", len(raw), err, maxBody)
	}

	raw = nil
	if _, err := scripted(http.StatusOK, body[:5], int64(len(body))).Do(http.MethodGet, "/x", nil, &raw, nil); err == nil {
		t.Fatal("a body shorter than its Content-Length must be a read error")
	}

	raw = nil
	_, err := scripted(http.StatusNotFound, []byte(`{"error": {"message": "gone"}}`), -1).Do(http.MethodGet, "/x", nil, &raw, nil)
	if !IsStatus(err, http.StatusNotFound) || raw != nil {
		t.Fatalf("404: err %v, raw %q; want a StatusError and no body", err, raw)
	}
}
