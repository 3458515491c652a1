package sim

// PartySeeded reports whether party id's random source has been seeded in
// the current run, for the lazy-seeding tests in package sim_test.
func (n *Network) PartySeeded(id PartyID) bool { return n.parties[id].seeded }
