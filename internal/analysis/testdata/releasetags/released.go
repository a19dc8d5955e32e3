//go:build go1.21

package releasetags

// Released is gated on a Go release every supported toolchain has.
const Released = 1
