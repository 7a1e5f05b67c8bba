// Package session is the session-multiplexed transport every node
// speaks (DESIGN.md §10): one TCP connection carries any number of
// logical sessions, each named by the frame-level session ID
// (internal/protocol). It is the one place that knows the transport
// policy, for both ends of a connection.
//
// The accept side (Conn, Session, Host) serves an accepted connection
// for an origin server or a proxy alike. Session 0 is the connection's
// implicit session — the one every pre-mux client speaks — and keeps
// the classic contract: its frames are handled inline on the read
// loop, in order. A non-zero session is created by a Hello (or a
// proxy's ProxyHello) and its frames are handled on spawned
// goroutines, one per in-flight request, so a session blocked in a
// write-lock queue never stalls the connection's other sessions. All
// outbound frames funnel through one bounded queue drained by the
// connection's writer goroutine. Replies may block for queue space up
// to the write timeout (then the whole connection is evicted as
// stuck); notifications never block — one that finds the session's
// bound or the connection queue full is shed, and shedding always
// evicts the session, because a subscriber that missed a Notify would
// serve stale reads forever believing itself current. What differs
// between hosts — admitting a session, handling a frame, releasing a
// torn-down session's state — is the Host interface.
//
// The dial side (Dialed) is the matching client connection: a pending
// table that matches replies to concurrent calls by request ID, with
// one Call whose timeout policy follows from the session ID, the same
// fact the accept side acts on — an overdue reply on a non-zero session
// fails only that call, one on session 0 fails the whole connection,
// whose ordered stream can no longer be trusted. Session 0 stays inline
// on the accept side because that is measured: serving it on
// per-request goroutines cost the journaled-write benchmark a quarter
// of its throughput (DESIGN.md §10). RoundTrip is the one-shot exchange
// on a connection of its own that gossip and fleet tools use; it dials,
// bounds, sends, reads and closes.
package session
