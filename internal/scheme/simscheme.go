package scheme

import "fmt"

// SimScheme is the shared numeric scheme identifier of the two simulators.
// internal/eventsim (flow-level) and internal/swarm (chunk-level) used to
// declare private copies of this enum with conflicting numberings; both
// Config.Scheme fields now have this type, so a scheme value can flow from
// a CLI flag through internal/sim into either simulator without a
// translation table.
//
// The numbering follows the flow-level simulator's original iota order —
// the only one of the two that covers all four schemes. The chunk-level
// swarm supports SimMFCD, SimCMFSD and SimMTSD only: MTCD runs each
// torrent in its own swarm, so inside a single shared swarm it is
// chunk-for-chunk identical to MFCD (swarm.Config.Validate rejects it).
type SimScheme int

// The four schemes of the paper, in flow-level numbering.
const (
	// SimMTCD: multi-torrent concurrent downloading (Section 3.2).
	SimMTCD SimScheme = iota
	// SimMTSD: multi-torrent sequential downloading (Section 3.3).
	SimMTSD
	// SimMFCD: multi-file torrent concurrent downloading (Section 3.4).
	SimMFCD
	// SimCMFSD: collaborative multi-file torrent sequential downloading —
	// the paper's proposal (Section 3.5).
	SimCMFSD
)

// SimSchemes lists all simulator schemes in paper order.
var SimSchemes = []SimScheme{SimMTCD, SimMTSD, SimMFCD, SimCMFSD}

// String implements fmt.Stringer with the paper's scheme names.
func (s SimScheme) String() string {
	switch s {
	case SimMTCD:
		return "MTCD"
	case SimMTSD:
		return "MTSD"
	case SimMFCD:
		return "MFCD"
	case SimCMFSD:
		return "CMFSD"
	default:
		return fmt.Sprintf("SimScheme(%d)", int(s))
	}
}

// ParseSim converts a scheme name to its simulator identifier.
func ParseSim(s string) (SimScheme, error) {
	for _, sc := range SimSchemes {
		if sc.String() == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("scheme: unknown scheme %q", s)
}
