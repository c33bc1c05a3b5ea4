//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package nettrans

// The wire is little-endian and float32 bodies are read and written in
// place as memory, so this package does not build for a big-endian target.
var _ = littleEndianTargetsOnly // undefined: refuse to compile
