module cachepart/bench

go 1.24

require cachepart v0.0.0

replace cachepart => ../
