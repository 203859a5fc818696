// Package cli is the command surface cmd/ba and cmd/cluster share: the
// common flags, the rule that resolves them against a registered scenario,
// the single-run JSON document, and the text summary lines. Each binary
// declares its own flags on the same FlagSet and keeps its own runtime call.
//
// Architecture: DESIGN.md §2 — both runtimes report through one document,
// so the simulator's and the live cluster's outputs for the same config
// and seed diff clean.
package cli
