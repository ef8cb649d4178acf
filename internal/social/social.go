// Package social models the social-networking application layer of the
// paper's §1: users with profiles, the friendship graph, shared resources
// (posts, files), and the consumer/provider interactions that feed both the
// satisfaction model (§2.1) and the reputation mechanisms (§2.2).
package social

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/graph"
)

// Sensitivity classifies how private a profile attribute or resource is.
// It drives default privacy policies (§2.3): higher sensitivity means
// stricter disclosure conditions.
type Sensitivity int

// Sensitivity classes, from freely shareable to strictly personal.
const (
	Public Sensitivity = iota + 1
	Low
	Medium
	High
)

// String returns the sensitivity name.
func (s Sensitivity) String() string {
	switch s {
	case Public:
		return "public"
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("sensitivity(%d)", int(s))
	}
}

// Attribute is one profile field.
type Attribute struct {
	Name        string
	Value       string
	Sensitivity Sensitivity
}

// Profile is a user's set of attributes.
type Profile struct {
	Attributes []Attribute
}

// Attribute returns the named attribute and whether it exists.
func (p Profile) Attribute(name string) (Attribute, bool) {
	for _, a := range p.Attributes {
		if a.Name == name {
			return a, true
		}
	}
	return Attribute{}, false
}

// StandardProfile builds the default attribute set used in experiments:
// one attribute per sensitivity class, named for its class.
func StandardProfile(userID int) Profile {
	return Profile{Attributes: []Attribute{
		{Name: "nickname", Value: fmt.Sprintf("user-%d", userID), Sensitivity: Public},
		{Name: "interests", Value: "music,sports", Sensitivity: Low},
		{Name: "email", Value: fmt.Sprintf("user-%d@example.org", userID), Sensitivity: Medium},
		{Name: "location", Value: "somewhere", Sensitivity: Medium},
		{Name: "medical", Value: "private", Sensitivity: High},
	}}
}

// ResourceKind distinguishes shareable object types.
type ResourceKind int

// Resource kinds.
const (
	Post ResourceKind = iota + 1
	File
	ProfileAttribute
)

// Resource is a shareable object owned by a user.
type Resource struct {
	ID          int
	Owner       int
	Kind        ResourceKind
	Sensitivity Sensitivity
}

// User is a participant: identity, profile, behaviour policy, and the
// disclosure willingness that links the privacy facet to the reputation
// facet (the paper's "quantity of shared information").
type User struct {
	ID       int
	Profile  Profile
	Behavior adversary.Behavior
	// BaseDisclosure is the user's base willingness to share feedback and
	// attributes with the reputation layer, in [0,1].
	BaseDisclosure float64
}

// Network is the social network state.
type Network struct {
	users     []*User
	friends   *graph.Graph
	resources []Resource
	nextTx    uint64
}

// NewNetwork assembles a network; users[i].ID must equal i and the
// friendship graph must have exactly len(users) nodes.
func NewNetwork(users []*User, friends *graph.Graph) (*Network, error) {
	if friends == nil {
		return nil, fmt.Errorf("social: nil friendship graph")
	}
	if friends.N() != len(users) {
		return nil, fmt.Errorf("social: %d users but friendship graph has %d nodes",
			len(users), friends.N())
	}
	for i, u := range users {
		if u == nil {
			return nil, fmt.Errorf("social: nil user at %d", i)
		}
		if u.ID != i {
			return nil, fmt.Errorf("social: user at index %d has ID %d", i, u.ID)
		}
	}
	return &Network{users: users, friends: friends}, nil
}

// N returns the number of users.
func (n *Network) N() int { return len(n.users) }

// User returns the user with the given id, or nil if out of range.
func (n *Network) User(id int) *User {
	if id < 0 || id >= len(n.users) {
		return nil
	}
	return n.users[id]
}

// Users returns the user list (shared; callers must not mutate).
func (n *Network) Users() []*User { return n.users }

// Friends returns the friendship graph.
func (n *Network) Friends() *graph.Graph { return n.friends }

// AddResource registers a resource owned by owner and returns its id.
func (n *Network) AddResource(owner int, kind ResourceKind, sens Sensitivity) (int, error) {
	if n.User(owner) == nil {
		return 0, fmt.Errorf("social: unknown owner %d", owner)
	}
	id := len(n.resources)
	n.resources = append(n.resources, Resource{ID: id, Owner: owner, Kind: kind, Sensitivity: sens})
	return id, nil
}

// Resource returns the resource with the given id and whether it exists.
func (n *Network) Resource(id int) (Resource, bool) {
	if id < 0 || id >= len(n.resources) {
		return Resource{}, false
	}
	return n.resources[id], true
}

// NumResources returns the resource count.
func (n *Network) NumResources() int { return len(n.resources) }

// NextTxID allocates a fresh interaction id.
func (n *Network) NextTxID() uint64 {
	n.nextTx++
	return n.nextTx
}
