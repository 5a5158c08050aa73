//go:build go1.23

package netem

import (
	"iter"

	"pinscope/internal/tlswire"
)

// serve attaches h as the connection's server side. It starts on the
// client's first wait; when h returns, its end closes with FIN (a no-op if
// h already closed it).
func (c *conn) serve(h Handler) {
	c.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer c.ends[server].Close(tlswire.CloseFIN)
		h(&c.ends[server])
	})
}
