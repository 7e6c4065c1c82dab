package server

import "synergy/internal/synergy"

// SystemSession, NewSystemSession and SystemBackend are the pre-
// synergy.Session names. Kept for benchmark/, which this tree's PRs may not
// edit; drop them in the next `benchmark` PR.

// SystemSession is synergy.Session.
type SystemSession = synergy.Session

// NewSystemSession is sys.NewSession().
func NewSystemSession(sys *synergy.System) *SystemSession { return sys.NewSession() }

// SystemBackend is Backend{Name: name, System: sys}.
func SystemBackend(name string, sys *synergy.System) Backend {
	return Backend{Name: name, System: sys}
}
