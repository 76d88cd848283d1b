package core

import "dtnsim/internal/ident"

// Re-exported identity types so applications built on the core façade don't
// need to import the leaf ident package.
type (
	// NodeID identifies a device.
	NodeID = ident.NodeID
	// MessageID identifies a message network-wide.
	MessageID = ident.MessageID
)
