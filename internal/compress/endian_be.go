//go:build !(386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package compress

// hostLittleEndian is false on big-endian hosts: Unmarshal copies the code
// section word by word instead of viewing it.
const hostLittleEndian = false
