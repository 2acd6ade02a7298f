module concord/bench

go 1.24

require concord v0.0.0

replace concord => ../
