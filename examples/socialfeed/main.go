// Socialfeed: a decentralized social network where profile attributes are
// published through the PriServ-style privacy service with P3P-like
// policies. Friends with enough reputation-established trust can read a
// member's posts and contact details; strangers, low-trust peers and
// commercial crawlers are denied by the matching policy clause; every grant
// is ledgered and the OECD audit closes the loop.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/trustnet"
)

func main() {
	const members = 40
	s := trustnet.NewSim()
	rng := trustnet.NewRNG(2026)

	// Substrate: the privacy service over a replicated DHT of the members'
	// machines, and a small-world friendship graph.
	svc, ledger, err := trustnet.NewPrivacyService(members, 3, s)
	if err != nil {
		log.Fatal(err)
	}
	friends := trustnet.WattsStrogatzGraph(rng, members, 6, 0.1)

	// Every member publishes three items with sensitivity-derived
	// policies: a public post, a friends-only email, a high-sensitivity
	// medical note.
	type item struct {
		suffix string
		sens   trustnet.Sensitivity
	}
	items := []item{
		{"post", trustnet.Public},
		{"email", trustnet.MediumSensitivity},
		{"medical", trustnet.HighSensitivity},
	}
	for m := 0; m < members; m++ {
		profile := trustnet.StandardProfile(m)
		for _, it := range items {
			key := fmt.Sprintf("user/%d/%s", m, it.suffix)
			val := fmt.Sprintf("%s of %s", it.suffix, profile.Attributes[0].Value)
			if err := svc.Publish(m, key, []byte(val), it.sens, trustnet.DefaultPolicy(it.sens)); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Reputation-established trust per member (stand-in for a mechanism
	// run; see the quickstart/filesharing examples for the real thing).
	trust := make([]float64, members)
	for m := range trust {
		trust[m] = 0.3 + 0.6*rng.Float64()
	}

	// A browsing session: members read each other's items.
	grants, denials := 0, 0
	for k := 0; k < 600; k++ {
		reader := rng.Intn(members)
		owner := rng.Intn(members)
		it := items[rng.Intn(len(items))]
		key := fmt.Sprintf("user/%d/%s", owner, it.suffix)
		isFriend := friends.HasEdge(reader, owner)
		if _, _, err := svc.Request(reader, key, trustnet.Read, trustnet.SocialUse, trust[reader], isFriend); err == nil {
			grants++
		} else {
			denials++
		}
		s.After(1, func() {})
		if err := s.Run(0); err != nil {
			log.Fatal(err)
		}
	}

	// A commercial crawler tries to harvest emails for any purpose it can.
	crawlerDenied := 0
	for m := 0; m < members; m++ {
		key := fmt.Sprintf("user/%d/email", m)
		if _, _, err := svc.Request(members-1, key, trustnet.Read, trustnet.CommercialUse, 0.99, false); err != nil {
			crawlerDenied++
		}
	}

	fmt.Printf("browsing session: %d grants, %d denials\n", grants, denials)
	fmt.Printf("crawler harvesting emails for commercial use: denied %d/%d times\n", crawlerDenied, members)
	fmt.Println("\ndenials by policy clause:")
	reasons := make([]trustnet.DenyReason, 0, len(svc.Denials))
	for reason := range svc.Denials {
		reasons = append(reasons, reason)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	for _, reason := range reasons {
		fmt.Printf("  %-25s %d\n", reason, svc.Denials[reason])
	}

	// Each member can see what about them was disclosed and at what cost.
	someone := 3
	disclosures, _ := ledger.Tally(someone)
	fmt.Printf("\nmember %d's disclosures: %d, exposure %.2f, privacy facet %.3f\n",
		someone, disclosures, ledger.Exposure(someone), ledger.PrivacyFacet(someone, 10))

	// Run retention expiries, then audit.
	if err := s.Run(s.Now() + 2000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nOECD audit:")
	for _, r := range trustnet.AuditPrivacy(svc, ledger, s.Now()) {
		fmt.Printf("  %-26s pass=%v (%s)\n", r.Principle, r.Pass, r.Detail)
	}
}
