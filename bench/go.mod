module aire/bench

go 1.22

require aire v0.0.0

replace aire => ../
