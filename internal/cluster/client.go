package cluster

import (
	"errors"
	"io"
	"net/url"
	"syscall"
)

// TransientConnErr reports whether err is a connection-level failure with
// no response behind it — the only failures worth retrying (or failing
// over) for an idempotent request: the server cannot have half-applied
// anything it never answered, and the API has nothing to half-apply.
func TransientConnErr(err error) bool {
	var ue *url.Error
	if !errors.As(err, &ue) {
		return false
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE)
}
