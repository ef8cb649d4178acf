package social

import "fmt"

// NetworkState is the serializable mutable state of a Network: the
// transaction counter and registered resources. Users and the friendship
// graph are scenario structure — rebuilt deterministically from the seed —
// not state.
type NetworkState struct {
	NextTx    uint64
	Resources []Resource
}

// State captures the network's mutable state.
func (n *Network) State() NetworkState {
	return NetworkState{
		NextTx:    n.nextTx,
		Resources: append([]Resource(nil), n.resources...),
	}
}

// SetState restores a previously captured state. Resource owners must still
// exist in the (rebuilt) population.
func (n *Network) SetState(st NetworkState) error {
	for _, r := range st.Resources {
		if r.Owner < 0 || r.Owner >= len(n.users) {
			return fmt.Errorf("social: resource %d owned by unknown user %d", r.ID, r.Owner)
		}
	}
	n.nextTx = st.NextTx
	n.resources = append([]Resource(nil), st.Resources...)
	return nil
}
