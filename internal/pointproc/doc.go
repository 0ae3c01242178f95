// Package pointproc provides the point-process machinery behind approach L1
// and the workload simulator: nearest- and next-arrival distances on sorted
// timestamp sequences (a search per point, or one merge walk when the points
// are sorted too), uniform random sampling over an interval, subsampling, and
// Poisson process generation (homogeneous, and non-homogeneous by
// thinning).
//
// Timestamp sequences are the per-source log sequences of
// logmodel.Store.SourceIndex: sorted slices of logmodel.Millis.
//
// See DESIGN.md §3 (System inventory).
package pointproc
