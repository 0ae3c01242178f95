// Package analyzers registers lintscape's analyzer suite: the static
// invariants that keep the determinism & concurrency contract a
// compile-time property of the repository. Seven analyzers are syntactic;
// taintorder is interprocedural, built on internal/analysis/dataflow. All
// eight share one shape: a Run over the whole program. See DESIGN.md
// §"Static invariants" for the invariant each analyzer encodes.
package analyzers
