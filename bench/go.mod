module logscape/bench

go 1.22

require logscape v0.0.0

replace logscape => ../
