package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"vexus/internal/cluster"
	"vexus/internal/greedy"
	"vexus/internal/serve"
	"vexus/internal/telemetry"
)

// pinnedWorkers is the worker count of the offline pipeline, snapshot
// loads and the optimizer's pool scoring. One worker keeps repeated
// builds within a few percent of each other on a small machine; two
// spread them by about a sixth.
const pinnedWorkers = 1

// shardGreedy is the optimizer configuration a `-shard` process runs:
// the defaults without the wall-clock cutoff, so replay reproduces a
// session and objective_mean does not depend on CPU speed.
func shardGreedy() greedy.Config {
	cfg := greedy.DefaultConfig()
	cfg.TimeLimit = 0
	cfg.Workers = pinnedWorkers
	return cfg
}

// wrapFunc lets the caller interpose on a layer's handler ("gateway"
// or "shard"): the tracer times requests there, and the tests tamper
// with responses there.
type wrapFunc func(layer string, h http.Handler) http.Handler

// httpServer is one handler served on a loopback port.
type httpServer struct {
	srv *http.Server
	url string
	ln  net.Listener
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// close hangs up every connection, open event streams included.
func (s *httpServer) close() { _ = s.srv.Close() }

// shard is one catalog server of the cluster.
type shard struct {
	dir string
	srv *serve.Server
	reg *telemetry.Registry
	web *httpServer
}

// vexusCluster is the system under test: a gateway in front of two
// catalog shards, all on loopback HTTP in this process.
type vexusCluster struct {
	shards []*shard
	gw     *cluster.Gateway
	web    *httpServer
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// newShard starts a catalog server over specs with its snapshots in dir.
func newShard(dir string, specs map[string]serve.DatasetSpec, defaultName string, wrap wrapFunc) (*shard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	scfg := serve.DefaultConfig()
	scfg.ShardAPI = true
	scfg.Telemetry = reg
	scfg.Logger = quietLogger()
	cat, err := serve.NewCatalog(dir, specs, defaultName, shardGreedy(), scfg, pinnedWorkers, 0)
	if err != nil {
		return nil, err
	}
	srv := serve.NewCatalogServer(cat)
	var h http.Handler = srv.Routes()
	if wrap != nil {
		h = wrap("shard", h)
	}
	web, err := listen(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &shard{dir: dir, srv: srv, reg: reg, web: web}, nil
}

func (s *shard) close() {
	s.web.close()
	s.srv.Close()
}

// startCluster brings up both shards, makes each build (or load) the
// default dataset, and puts the gateway in front of them. The two
// builds run at once, as two shard processes starting together would.
func startCluster(root string, specs map[string]serve.DatasetSpec, defaultName string, wrap wrapFunc) (*vexusCluster, error) {
	c := &vexusCluster{}
	for i := 0; i < 2; i++ {
		sh, err := newShard(filepath.Join(root, fmt.Sprintf("shard%d", i)), specs, defaultName, wrap)
		if err != nil {
			c.close()
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	errs := make(chan error, len(c.shards))
	for _, sh := range c.shards {
		go func(sh *shard) { errs <- warmDataset(sh.web.url, defaultName) }(sh)
	}
	var firstErr error
	for range c.shards {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		c.close()
		return nil, firstErr
	}
	members := make([]*cluster.Shard, len(c.shards))
	for i, sh := range c.shards {
		addr := sh.web.ln.Addr().String()
		members[i] = cluster.RemoteShard(addr, addr)
	}
	gw, err := cluster.NewGatewayConfig(cluster.GatewayConfig{Logger: quietLogger()}, members...)
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = gw
	var h http.Handler = gw.Routes()
	if wrap != nil {
		h = wrap("gateway", h)
	}
	if c.web, err = listen(h); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// warmDataset makes a shard build or load a dataset's engine by
// opening (and closing) one session on it directly.
func warmDataset(shardURL, name string) error {
	res, err := http.Post(shardURL+"/api/v1/sessions?dataset="+name, "application/json", nil)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		return fmt.Errorf("warming %s: status %d: %s", name, res.StatusCode, body)
	}
	var st struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodDelete, shardURL+"/api/v1/sessions/"+st.Session, nil)
	if err != nil {
		return err
	}
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	res.Body.Close()
	return nil
}

func (c *vexusCluster) close() {
	if c.web != nil {
		c.web.close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, sh := range c.shards {
		sh.close()
	}
}

// restart opens a fresh catalog over a copy of a shard's snapshot
// directory and times it until it has served a first session on each
// of names, in turn. It returns that time and the engine version the
// catalog reloaded for each name.
func restart(dir string, specs map[string]serve.DatasetSpec, names ...string) (time.Duration, []uint64, error) {
	start := time.Now()
	sh, err := newShard(dir, specs, names[0], nil)
	if err != nil {
		return 0, nil, err
	}
	defer sh.close()
	for _, name := range names {
		if err := warmDataset(sh.web.url, name); err != nil {
			return 0, nil, err
		}
	}
	elapsed := time.Since(start)
	versions := make([]uint64, len(names))
	for i, name := range names {
		if versions[i], err = datasetVersion(sh.web.url, name); err != nil {
			return 0, nil, err
		}
	}
	return elapsed, versions, nil
}

// datasetVersion reads a dataset's engine version off GET /api/datasets.
func datasetVersion(base, name string) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/datasets", nil)
	if err != nil {
		return 0, err
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	var list struct {
		Datasets []serve.DatasetStatus `json:"datasets"`
	}
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		return 0, err
	}
	for _, row := range list.Datasets {
		if row.Name == name {
			return row.Version, nil
		}
	}
	return 0, errors.New("dataset " + name + " not listed")
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
