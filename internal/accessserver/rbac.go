// Package accessserver implements BatteryLab's access server (§3.1): the
// Jenkins-like automation core that manages vantage points and schedules
// experiments on them. It provides multi-user authentication with a
// role-based authorization matrix, a job/pipeline store where every
// pipeline change needs administrator approval, a build queue that
// dispatches jobs under platform constraints (one job at a time per
// device, optional low-CPU gating), per-build workspaces with bounded
// log/artifact retention, and the recurring maintenance jobs the paper
// describes (certificate renewal, monitor-off safety, factory reset).
package accessserver

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Role is a user's platform role.
type Role int

// Roles.
const (
	// RoleAdmin manages users, nodes and pipeline approvals.
	RoleAdmin Role = iota
	// RoleExperimenter creates and runs jobs.
	RoleExperimenter
	// RoleTester only interacts with device-mirroring sessions shared
	// with them (the crowdsourced humans of §3).
	RoleTester
	// RolePeer is the synthetic principal behind the shared cluster
	// token: a federated peer relaying builds here. It may submit and
	// follow builds — nothing else — and is exempt from admission
	// fairness and credits, because the build's home server already
	// applied both to the real submitting user.
	RolePeer
)

func (r Role) String() string {
	switch r {
	case RoleAdmin:
		return "admin"
	case RoleExperimenter:
		return "experimenter"
	case RolePeer:
		return "peer"
	default:
		return "tester"
	}
}

// Permission is one action in the authorization matrix.
type Permission int

// Permissions.
const (
	PermCreateJob Permission = iota
	PermEditJob
	PermRunJob
	PermApprovePipeline
	PermManageNodes
	PermManageUsers
	PermViewConsole
	PermInteractSession
)

func (p Permission) String() string {
	switch p {
	case PermCreateJob:
		return "create-job"
	case PermEditJob:
		return "edit-job"
	case PermRunJob:
		return "run-job"
	case PermApprovePipeline:
		return "approve-pipeline"
	case PermManageNodes:
		return "manage-nodes"
	case PermManageUsers:
		return "manage-users"
	case PermViewConsole:
		return "view-console"
	default:
		return "interact-session"
	}
}

// matrix is the role-based authorization matrix (§3.1).
var matrix = map[Role]map[Permission]bool{
	RoleAdmin: {
		PermCreateJob: true, PermEditJob: true, PermRunJob: true,
		PermApprovePipeline: true, PermManageNodes: true, PermManageUsers: true,
		PermViewConsole: true, PermInteractSession: true,
	},
	RoleExperimenter: {
		PermCreateJob: true, PermEditJob: true, PermRunJob: true,
		PermViewConsole: true, PermInteractSession: true,
	},
	RoleTester: {
		PermInteractSession: true,
	},
	RolePeer: {
		PermRunJob: true, PermViewConsole: true,
	},
}

// Allowed reports whether role may perform perm.
func Allowed(role Role, perm Permission) bool {
	return matrix[role][perm]
}

// User is an authenticated platform member.
type User struct {
	Name  string
	Role  Role
	Token string
}

// Users is the credential store.
type Users struct {
	mu      sync.RWMutex
	byToken map[string]*User
	byName  map[string]*User
	// hook observes membership changes (the WAL append when a store is
	// attached). Called under u.mu; it must not re-enter the store.
	hook func(u User, removed bool)
	// tokens is the token entropy source (nil = crypto/rand); tests
	// seed it to make WAL bytes reproducible.
	tokens io.Reader
}

// setHook installs the membership observer. Entries installed via
// restore never reach it.
func (u *Users) setHook(fn func(u User, removed bool)) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.hook = fn
}

// restore reinstates a member with their original token (recovery
// path). An existing entry by the same name — a daemon that re-created
// its bootstrap users before attaching the store — is replaced, so the
// persisted token stays the valid one.
func (u *Users) restore(name string, role Role, token string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if old, ok := u.byName[name]; ok {
		delete(u.byToken, old.Token)
	}
	user := &User{Name: name, Role: role, Token: token}
	u.byName[name] = user
	u.byToken[token] = user
}

// NewUsers returns an empty store.
func NewUsers() *Users {
	return &Users{byToken: make(map[string]*User), byName: make(map[string]*User)}
}

// Add creates a user and returns its access token.
func (u *Users) Add(name string, role Role) (*User, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, dup := u.byName[name]; dup {
		return nil, fmt.Errorf("accessserver: user %q exists", name)
	}
	tok := make([]byte, 16)
	src := u.tokens
	if src == nil {
		src = rand.Reader
	}
	if _, err := io.ReadFull(src, tok); err != nil {
		return nil, err
	}
	user := &User{Name: name, Role: role, Token: hex.EncodeToString(tok)}
	u.byToken[user.Token] = user
	u.byName[name] = user
	if u.hook != nil {
		u.hook(*user, false)
	}
	return user, nil
}

// Authenticate resolves a token.
func (u *Users) Authenticate(token string) (*User, error) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	user, ok := u.byToken[token]
	if !ok {
		return nil, fmt.Errorf("accessserver: invalid token")
	}
	return user, nil
}

// Lookup resolves a name.
func (u *Users) Lookup(name string) (*User, error) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	user, ok := u.byName[name]
	if !ok {
		return nil, fmt.Errorf("accessserver: no user %q", name)
	}
	return user, nil
}

// Remove deletes a user.
func (u *Users) Remove(name string) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	user, ok := u.byName[name]
	if !ok {
		return fmt.Errorf("accessserver: no user %q", name)
	}
	delete(u.byName, name)
	delete(u.byToken, user.Token)
	if u.hook != nil {
		u.hook(*user, true)
	}
	return nil
}

// List reports user names sorted.
func (u *Users) List() []string {
	u.mu.RLock()
	defer u.mu.RUnlock()
	out := make([]string, 0, len(u.byName))
	for n := range u.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
