module piql/bench

go 1.24

require piql v0.0.0

replace piql => ../
