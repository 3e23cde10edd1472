package aglet

// Itinerary is a serializable travel plan for a mobile agent: the ordered
// hosts to visit and how far along the trip the agent is. The paper's Mobile
// Buyer Agent visits "more than two online marketplaces" (§5.1 capability 3)
// before returning to its Buyer Agent Server; Itinerary captures that route.
//
// The type is plain data so it embeds directly in an agent's JSON state.
type Itinerary struct {
	Stops []string `json:"stops"` // hosts to visit, in order
	Home  string   `json:"home"`  // where to return after the last stop
	Index int      `json:"index"` // next stop to visit; len(Stops) means homebound
}

// NewItinerary plans a trip through stops and back to home.
func NewItinerary(home string, stops ...string) Itinerary {
	return Itinerary{Stops: append([]string(nil), stops...), Home: home}
}

// Current returns the host the agent is presently due at: the stop at Index,
// or Home once all stops are done.
func (it Itinerary) Current() string {
	if it.Index < len(it.Stops) {
		return it.Stops[it.Index]
	}
	return it.Home
}

// Done reports whether every stop has been visited.
func (it Itinerary) Done() bool { return it.Index >= len(it.Stops) }

// Advance marks the current stop visited and returns the next destination
// (a stop or, when the trip is complete, Home) together with the updated
// itinerary. Calling Advance on a completed itinerary keeps returning Home.
func (it Itinerary) Advance() (next string, updated Itinerary) {
	if it.Index < len(it.Stops) {
		it.Index++
	}
	return it.Current(), it
}
