package privacy

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"repro/internal/dht"
	"repro/internal/sim"
	"repro/internal/social"
)

// ErrUnknownKey is returned when requesting a key that was never published
// or was withdrawn.
var ErrUnknownKey = errors.New("privacy: unknown key")

// ErrDenied is returned when the policy denies the request; the Decision
// carries the reason.
var ErrDenied = errors.New("privacy: access denied")

// itemMeta is the registry entry for a published item.
type itemMeta struct {
	owner       int
	sensitivity social.Sensitivity
	policy      Policy
	digest      [32]byte
	withdrawn   bool
}

// grantedCopy tracks a copy handed to a requester, for retention
// enforcement.
type grantedCopy struct {
	key     string
	holder  int
	expires sim.Time // zero = no limit
	deleted bool
}

// Notification is a NotifyOwner obligation execution record.
type Notification struct {
	Owner     int
	Key       string
	Requester int
	At        sim.Time
}

// Service is the PriServ-style privacy service (the paper's [12]): owners
// publish private data with a privacy policy; requesters must present
// operation, purpose and a sufficient trust level. Data lives on the DHT,
// sealed with an integrity MAC; every grant is ledgered and kept on the
// service's audit trail; retention limits are enforced by simulation events.
type Service struct {
	ring   *dht.Ring
	ledger *Ledger
	sim    *sim.Sim
	key    []byte // integrity MAC key

	registry map[string]*itemMeta
	accesses map[string]map[int]int // key -> requester -> count
	copies   []*grantedCopy
	notices  []Notification
	// trail is the per-event audit trail the OECD audit reads; the ledger
	// keeps only aggregates.
	trail []Disclosure

	// Grants counts allowed requests; Denials tallies by reason.
	Grants  int64
	Denials map[DenyReason]int64
}

// NewService wires a privacy service over a DHT ring, a ledger and the
// simulation clock.
func NewService(ring *dht.Ring, ledger *Ledger, s *sim.Sim) (*Service, error) {
	if ring == nil || ledger == nil || s == nil {
		return nil, fmt.Errorf("privacy: NewService requires ring, ledger and sim")
	}
	return &Service{
		ring:     ring,
		ledger:   ledger,
		sim:      s,
		key:      []byte("priserv-integrity-key"),
		registry: make(map[string]*itemMeta),
		accesses: make(map[string]map[int]int),
		Denials:  make(map[DenyReason]int64),
	}, nil
}

func (s *Service) seal(data []byte) []byte {
	mac := hmac.New(sha256.New, s.key)
	mac.Write(data)
	return append(mac.Sum(nil), data...)
}

func (s *Service) unseal(blob []byte) ([]byte, error) {
	if len(blob) < sha256.Size {
		return nil, fmt.Errorf("privacy: sealed blob too short")
	}
	tag, data := blob[:sha256.Size], blob[sha256.Size:]
	mac := hmac.New(sha256.New, s.key)
	mac.Write(data)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, fmt.Errorf("privacy: integrity check failed")
	}
	return data, nil
}

// Publish stores an owner's data item under key with its privacy policy.
// Re-publishing an existing live key is an error; republish after Withdraw
// is allowed.
func (s *Service) Publish(owner int, key string, data []byte, sens social.Sensitivity, pol Policy) error {
	if m, ok := s.registry[key]; ok && !m.withdrawn {
		return fmt.Errorf("privacy: key %q already published", key)
	}
	if err := s.ring.Put(key, s.seal(data)); err != nil {
		return fmt.Errorf("privacy: publish %q: %w", key, err)
	}
	s.registry[key] = &itemMeta{
		owner:       owner,
		sensitivity: sens,
		policy:      pol,
		digest:      sha256.Sum256(data),
	}
	return nil
}

// PolicyOf returns the policy of a published key (OECD openness: policies
// are not secret).
func (s *Service) PolicyOf(key string) (Policy, bool) {
	m, ok := s.registry[key]
	if !ok || m.withdrawn {
		return Policy{}, false
	}
	return m.policy, true
}

// OwnerOf returns the owner of a published key.
func (s *Service) OwnerOf(key string) (int, bool) {
	m, ok := s.registry[key]
	if !ok || m.withdrawn {
		return 0, false
	}
	return m.owner, true
}

// Request evaluates an access request against the key's policy and, if
// allowed, returns the data. Every grant is recorded in the ledger and
// obligations are executed (NotifyOwner appends a notification; retention
// schedules deletion of the granted copy).
func (s *Service) Request(requester int, key string, op Operation, purpose Purpose, trust float64, isFriend bool) ([]byte, Decision, error) {
	m, ok := s.registry[key]
	if !ok || m.withdrawn {
		return nil, Decision{}, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	prior := s.accesses[key][requester]
	req := Request{
		Requester:      requester,
		Owner:          m.owner,
		Operation:      op,
		Purpose:        purpose,
		RequesterTrust: trust,
		IsFriend:       isFriend,
		PriorAccesses:  prior,
	}
	dec := m.policy.Evaluate(req, s.sim.Now())
	if !dec.Allowed {
		s.Denials[dec.Reason]++
		return nil, dec, fmt.Errorf("%w: %q (%s)", ErrDenied, key, dec.Reason)
	}
	blob, err := s.ring.Get(key)
	if err != nil {
		return nil, dec, fmt.Errorf("privacy: fetch %q: %w", key, err)
	}
	data, err := s.unseal(blob)
	if err != nil {
		return nil, dec, err
	}
	s.Grants++
	if s.accesses[key] == nil {
		s.accesses[key] = make(map[int]int)
	}
	s.accesses[key][requester]++
	s.disclose(Disclosure{
		Owner:       m.owner,
		Item:        key,
		Sensitivity: m.sensitivity,
		Recipient:   requester,
		Purpose:     purpose,
		At:          s.sim.Now(),
		Consented:   true,
	})
	for _, ob := range dec.Obligations {
		if ob == NotifyOwner {
			s.notices = append(s.notices, Notification{
				Owner: m.owner, Key: key, Requester: requester, At: s.sim.Now(),
			})
		}
	}
	// Retention: track the granted copy and schedule its mandatory
	// deletion.
	copyRec := &grantedCopy{key: key, holder: requester, expires: dec.ExpiresAt}
	s.copies = append(s.copies, copyRec)
	if dec.ExpiresAt > 0 {
		s.sim.At(dec.ExpiresAt, func() { copyRec.deleted = true })
	}
	return data, dec, nil
}

// Withdraw lets an owner remove their own data (OECD individual
// participation). Only the owner may withdraw.
func (s *Service) Withdraw(owner int, key string) error {
	m, ok := s.registry[key]
	if !ok || m.withdrawn {
		return fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	if m.owner != owner {
		return fmt.Errorf("privacy: %d is not the owner of %q", owner, key)
	}
	s.ring.Delete(key)
	m.withdrawn = true
	return nil
}

// Leak records an unconsented flow of key's data to a recipient (used by
// attack experiments to model a requester violating a NoForward
// obligation). The ledger keeps the system accountable for it.
func (s *Service) Leak(key string, recipient int) error {
	m, ok := s.registry[key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	s.disclose(Disclosure{
		Owner:       m.owner,
		Item:        key,
		Sensitivity: m.sensitivity,
		Recipient:   recipient,
		Purpose:     CommercialUse,
		At:          s.sim.Now(),
		Consented:   false,
	})
	return nil
}

// disclose ledgers a disclosure and appends it to the audit trail.
func (s *Service) disclose(d Disclosure) {
	s.ledger.Record(d)
	s.trail = append(s.trail, d)
}

// EventsFor returns the disclosures of one owner's data, in order. This is
// the OECD "individual participation" query: an individual can see exactly
// what about them went where.
func (s *Service) EventsFor(owner int) []Disclosure {
	var out []Disclosure
	for _, e := range s.trail {
		if e.Owner == owner {
			out = append(out, e)
		}
	}
	return out
}

// Violations returns the non-consented disclosures (accountability audit
// trail).
func (s *Service) Violations() []Disclosure {
	var out []Disclosure
	for _, e := range s.trail {
		if !e.Consented {
			out = append(out, e)
		}
	}
	return out
}

// Notifications returns the NotifyOwner obligation executions.
func (s *Service) Notifications() []Notification { return s.notices }

// LiveCopies returns how many granted copies of key are currently allowed
// to exist (not yet past retention).
func (s *Service) LiveCopies(key string) int {
	n := 0
	for _, c := range s.copies {
		if c.key == key && !c.deleted {
			n++
		}
	}
	return n
}

// OverdueCopies returns granted copies that are past their retention time
// but not deleted — a correct system always returns zero after the
// simulation has run to the expiry times.
func (s *Service) OverdueCopies(now sim.Time) int {
	n := 0
	for _, c := range s.copies {
		if c.expires > 0 && now >= c.expires && !c.deleted {
			n++
		}
	}
	return n
}

// Keys returns all live published keys in sorted order, so every caller
// observes the registry deterministically.
func (s *Service) Keys() []string {
	out := make([]string, 0, len(s.registry))
	for k, m := range s.registry {
		if !m.withdrawn {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// VerifyIntegrity re-reads every live key from the DHT in sorted key order
// (so a run with several corruptions always reports the same one) and checks
// both the MAC seal and the publisher's digest (OECD data quality + security
// safeguards).
func (s *Service) VerifyIntegrity() error {
	for _, k := range s.Keys() {
		m := s.registry[k]
		blob, err := s.ring.Get(k)
		if err != nil {
			return fmt.Errorf("privacy: integrity: fetch %q: %w", k, err)
		}
		data, err := s.unseal(blob)
		if err != nil {
			return fmt.Errorf("privacy: integrity: %q: %w", k, err)
		}
		if sha256.Sum256(data) != m.digest {
			return fmt.Errorf("privacy: integrity: %q digest mismatch", k)
		}
	}
	return nil
}
