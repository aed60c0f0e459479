//go:build 386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package compress

// hostLittleEndian reports whether a uint64 in memory has the byte order
// of the marshaled code section, so Unmarshal may view the section in place.
const hostLittleEndian = true
