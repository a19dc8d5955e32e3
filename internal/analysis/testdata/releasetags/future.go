//go:build go1.99

package releasetags

// Future is gated on a Go release no toolchain has yet.
const Future = 1
