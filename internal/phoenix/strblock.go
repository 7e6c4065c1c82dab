package phoenix

import "strings"

// StringBlock is storage a session lends its statements (QueryOpts.Strings,
// WriteOpts.Strings) for the strings that die with their statement or
// transaction: key bounds, probe and parent-read keys, an EXECUTE's string
// parameters. It is only ever appended to: a string cut from it is never
// written again, and a full block is left to the strings cut from it and a
// fresh one started, so a cut string lives as long as any string does. The
// price is that one kept string pins its whole block, so a string the store,
// a lock or a cache keeps — a row key, a lock's root key — is never cut from
// one. A StringBlock is not safe for concurrent use: its session's goroutine
// cuts from it, any goroutine may read what was cut.
type StringBlock struct {
	b strings.Builder
}

// A block starts at minStringBlock bytes and doubles with each fresh one up
// to maxStringBlock, so a session that cuts a few keys pays for a few bytes;
// a string longer than maxStringCut is allocated by itself, so no block is
// started for one string.
const (
	minStringBlock = 256
	maxStringBlock = 4 << 10
	maxStringCut   = maxStringBlock / 4
)

// Cut returns b as a string cut from the block; a nil block allocates it.
func (s *StringBlock) Cut(b []byte) string {
	if s == nil || len(b) > maxStringCut {
		return string(b)
	}
	if len(b) == 0 {
		return "" // pins nothing
	}
	if s.b.Cap()-s.b.Len() < len(b) {
		n := min(max(2*s.b.Cap(), minStringBlock), maxStringBlock)
		s.b = strings.Builder{}
		s.b.Grow(n)
	}
	at := s.b.Len()
	s.b.Write(b)
	return s.b.String()[at:]
}
