package serve

import (
	"net/http"
	"time"
)

// Connection timeouts of the serving tier's HTTP servers. Queries are GETs
// with short headers and no body, so the read limits are generous for any
// honest client; there is no write timeout because the size of a region
// answer is the client's choice.
const (
	readHeaderTimeout = 3 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server pmserve and pmrouter listen with:
// h behind the connection timeouts above, so a client that stalls inside
// its request header, trickles a body, or parks a keep-alive connection
// cannot hold a connection and its goroutine forever.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}
