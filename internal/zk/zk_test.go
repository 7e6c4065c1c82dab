package zk

import (
	"errors"
	"sync"
	"testing"
)

func TestCreateGetSet(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	if _, err := s.Create("/hbase", []byte("v1"), CreateOpts{}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("/hbase", nil)
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v; want v1", got, err)
	}
	if err := s.Set("/hbase", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get("/hbase", nil)
	if string(got) != "v2" {
		t.Fatalf("Get after Set = %q, want v2", got)
	}
}

func TestCreateRequiresParent(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	if _, err := s.Create("/a/b", nil, CreateOpts{}); !errors.Is(err, ErrNoNode) {
		t.Fatalf("error = %v, want ErrNoNode", err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	s.Create("/x", nil, CreateOpts{})
	if _, err := s.Create("/x", nil, CreateOpts{}); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("error = %v, want ErrNodeExists", err)
	}
}

func TestSequentialNames(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	s.Create("/election", nil, CreateOpts{})
	p1, _ := s.Create("/election/n-", nil, CreateOpts{Sequential: true})
	p2, _ := s.Create("/election/n-", nil, CreateOpts{Sequential: true})
	if p1 == p2 {
		t.Fatal("sequential creates produced equal paths")
	}
	if p1 != "/election/n-0000000000" || p2 != "/election/n-0000000001" {
		t.Fatalf("sequential paths = %q, %q", p1, p2)
	}
}

func TestEphemeralRemovedOnClose(t *testing.T) {
	e := NewEnsemble()
	owner := e.NewSession()
	watcher := e.NewSession()
	owner.Create("/slaves", nil, CreateOpts{})
	owner.Create("/slaves/s0", nil, CreateOpts{Ephemeral: true})

	ch := make(chan Event, 1)
	kids, err := watcher.Children("/slaves", ch)
	if err != nil || len(kids) != 1 {
		t.Fatalf("Children = %v, %v", kids, err)
	}

	owner.Close()

	select {
	case ev := <-ch:
		if ev.Type != EventChildren {
			t.Fatalf("event = %v, want children event", ev)
		}
	default:
		t.Fatal("expected a child watch event after ephemeral owner closed")
	}
	kids, _ = watcher.Children("/slaves", nil)
	if len(kids) != 0 {
		t.Fatalf("ephemeral survived close: %v", kids)
	}
}

func TestDataWatchFiresOnce(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	s.Create("/n", []byte("a"), CreateOpts{})
	ch := make(chan Event, 2)
	s.Get("/n", ch)
	s.Set("/n", []byte("b"))
	s.Set("/n", []byte("c")) // second change: watch already consumed
	if len(ch) != 1 {
		t.Fatalf("watch events = %d, want 1 (one-shot)", len(ch))
	}
}

func TestDeleteSemantics(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	s.Create("/p", nil, CreateOpts{})
	s.Create("/p/c", nil, CreateOpts{})
	if err := s.Delete("/p"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("delete non-empty = %v, want ErrNotEmpty", err)
	}
	if err := s.Delete("/p/c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/p"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/p"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("double delete = %v, want ErrNoNode", err)
	}
}

func TestDeleteFiresDataWatch(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	s.Create("/n", nil, CreateOpts{})
	ch := make(chan Event, 1)
	s.Get("/n", ch)
	s.Delete("/n")
	select {
	case ev := <-ch:
		if ev.Type != EventDeleted {
			t.Fatalf("event type = %v, want deleted", ev.Type)
		}
	default:
		t.Fatal("expected delete event")
	}
}

func TestClosedSessionRejectsOps(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	s.Close()
	if _, err := s.Create("/x", nil, CreateOpts{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("create after close = %v, want ErrSessionClosed", err)
	}
	if _, err := s.Get("/x", nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("get after close = %v, want ErrSessionClosed", err)
	}
	if !s.Closed() {
		t.Fatal("Closed() = false after Close")
	}
}

func TestExistsWatchOnCreation(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	s.Create("/dir", nil, CreateOpts{})
	ch := make(chan Event, 1)
	ok, err := s.Exists("/dir/pending", ch)
	if err != nil || ok {
		t.Fatalf("Exists = %v, %v; want false, nil", ok, err)
	}
	s.Create("/dir/pending", nil, CreateOpts{})
	if len(ch) != 1 {
		t.Fatal("expected creation to fire the armed watch")
	}
}

func TestConcurrentSessionsNoRace(t *testing.T) {
	e := NewEnsemble()
	setup := e.NewSession()
	setup.Create("/root", nil, CreateOpts{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for j := 0; j < 50; j++ {
				p, err := s.Create("/root/n-", nil, CreateOpts{Ephemeral: true, Sequential: true})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(p, nil); err != nil {
					t.Error(err)
					return
				}
				if err := s.Delete(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	kids, _ := setup.Children("/root", nil)
	if len(kids) != 0 {
		t.Fatalf("leftover nodes: %v", kids)
	}
}

func TestInvalidPaths(t *testing.T) {
	e := NewEnsemble()
	s := e.NewSession()
	for _, bad := range []string{"", "noslash", "/trailing/"} {
		if _, err := s.Create(bad, nil, CreateOpts{}); err == nil {
			t.Fatalf("Create(%q) accepted invalid path", bad)
		}
	}
}
