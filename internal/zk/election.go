package zk

import (
	"sort"
	"strings"
)

// Election implements leader election over sequential ephemeral znodes, the
// standard ZooKeeper recipe: each participant creates an ephemeral sequential
// child under an election path; the lowest sequence number is the leader.
// The Synergy transaction layer master uses this both to establish itself and
// to detect slave failures (§VIII: "The Master node is responsible for
// detecting slave node failures").
type Election struct {
	sess *Session
	path string
	me   string
}

// JoinElection registers the caller as a candidate under path (created if
// absent) and returns its handle.
func JoinElection(sess *Session, path, name string) (*Election, error) {
	if ok, err := sess.Exists(path, nil); err != nil {
		return nil, err
	} else if !ok {
		if _, err := sess.Create(path, nil, CreateOpts{}); err != nil && !strings.Contains(err.Error(), "exists") {
			return nil, err
		}
	}
	me, err := sess.Create(path+"/"+name+"-", []byte(name), CreateOpts{Ephemeral: true, Sequential: true})
	if err != nil {
		return nil, err
	}
	return &Election{sess: sess, path: path, me: me}, nil
}

// IsLeader reports whether this candidate currently holds the lowest
// sequence number.
func (e *Election) IsLeader() (bool, error) {
	kids, err := e.sess.Children(e.path, nil)
	if err != nil {
		return false, err
	}
	if len(kids) == 0 {
		return false, nil
	}
	sort.Slice(kids, func(i, j int) bool { return seqOf(kids[i]) < seqOf(kids[j]) })
	return e.path+"/"+kids[0] == e.me, nil
}

// Leader returns the name stored in the current leader's znode.
func (e *Election) Leader() (string, error) {
	kids, err := e.sess.Children(e.path, nil)
	if err != nil {
		return "", err
	}
	if len(kids) == 0 {
		return "", ErrNoNode
	}
	sort.Slice(kids, func(i, j int) bool { return seqOf(kids[i]) < seqOf(kids[j]) })
	data, err := e.sess.Get(e.path+"/"+kids[0], nil)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// seqOf extracts the trailing 10-digit sequence number.
func seqOf(name string) string {
	if len(name) < 10 {
		return name
	}
	return name[len(name)-10:]
}
