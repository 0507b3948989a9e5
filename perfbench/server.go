package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"

	"btpub/internal/lake"
	"btpub/internal/lakeserve"
)

// server is a lakeserve.Server over one lake, on httptest loopback.
type server struct {
	lk   *lake.Lake
	srv  *lakeserve.Server
	http *httptest.Server
	c    *http.Client
}

func serve(b *bench, lk *lake.Lake) *server {
	srv := &lakeserve.Server{Lake: lk, Geo: b.db}
	h := httptest.NewServer(srv.Handler())
	return &server{lk: lk, srv: srv, http: h, c: h.Client()}
}

// close stops the server and closes its lake.
func (s *server) close() {
	s.http.Close()
	s.srv.Close()
	s.lk.Close()
}

// get fetches one API path and returns the status, body and served
// snapshot version.
func (s *server) get(path string) (int, []byte, uint64, error) {
	resp, err := s.c.Get(s.http.URL + lakeserve.APIPrefix + path)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	v, _ := strconv.ParseUint(resp.Header.Get("X-Btpub-Snapshot-Version"), 10, 64)
	return resp.StatusCode, body, v, err
}
