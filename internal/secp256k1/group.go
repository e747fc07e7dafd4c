package secp256k1

import "sync"

// affinePoint is a finite curve point (x, y); infinity has no affine
// form and is represented only in Jacobian coordinates.
type affinePoint struct {
	x, y fieldVal
}

// jacobianPoint is (X/Z^2, Y/Z^3); Z = 0 is the point at infinity, so
// the zero value is infinity.
type jacobianPoint struct {
	x, y, z fieldVal
}

var generator = affinePoint{
	x: fieldVal{0x59F2815B16F81798, 0x029BFCDB2DCE28D9, 0x55A06295CE870B07, 0x79BE667EF9DCBBAC},
	y: fieldVal{0x9C47D08FFB10D4B8, 0xFD17B448A6855419, 0x5DA4FBFC0E1108A8, 0x483ADA7726A3C465},
}

// isOnCurve reports y^2 = x^3 + 7.
func (p *affinePoint) isOnCurve() bool {
	var y2, x3 fieldVal
	y2.sqr(&p.y)
	x3.sqr(&p.x)
	x3.mul(&x3, &p.x)
	x3.add(&x3, &fieldSeven)
	return y2 == x3
}

// liftX sets p to the curve point with the given x and y parity and
// reports whether one exists.
func (p *affinePoint) liftX(x *fieldVal, odd bool) bool {
	var y2 fieldVal
	y2.sqr(x)
	y2.mul(&y2, x)
	y2.add(&y2, &fieldSeven)
	p.x = *x
	if !p.y.sqrt(&y2) {
		return false
	}
	if p.y.isOdd() != odd {
		p.y.neg(&p.y)
	}
	return true
}

func (p *affinePoint) neg(q *affinePoint) {
	p.x = q.x
	p.y.neg(&q.y)
}

func (p *jacobianPoint) isInfinity() bool { return p.z.isZero() }

func (p *jacobianPoint) setAffine(q *affinePoint) {
	*p = jacobianPoint{x: q.x, y: q.y, z: fieldOne}
}

func (p *jacobianPoint) neg(q *jacobianPoint) {
	p.x, p.z = q.x, q.z
	p.y.neg(&q.y)
}

// toAffine converts p, which must not be infinity, with one inversion.
func (p *jacobianPoint) toAffine() (a affinePoint) {
	var zInv, zInv2 fieldVal
	zInv.inv(&p.z)
	zInv2.sqr(&zInv)
	a.x.mul(&p.x, &zInv2)
	zInv2.mul(&zInv2, &zInv)
	a.y.mul(&p.y, &zInv2)
	return a
}

// double sets p = 2q (dbl-2009-l, a = 0: 2M + 5S). A point with y = 0
// would have order two; the curve has none, so only infinity doubles to
// infinity, and that falls out of Z3 = 2·Y·Z.
func (p *jacobianPoint) double(q *jacobianPoint) {
	var a, b, c, d, e, f, t fieldVal
	a.sqr(&q.x)
	b.sqr(&q.y)
	c.sqr(&b)
	d.add(&q.x, &b)
	d.sqr(&d)
	d.sub(&d, &a)
	d.sub(&d, &c)
	d.double(&d)
	e.double(&a)
	e.add(&e, &a)
	f.sqr(&e)
	p.z.mul(&q.y, &q.z)
	p.z.double(&p.z)
	t.double(&d)
	p.x.sub(&f, &t)
	t.sub(&d, &p.x)
	t.mul(&t, &e)
	c.double(&c)
	c.double(&c)
	c.double(&c)
	p.y.sub(&t, &c)
}

// add sets p = q + r (add-2007-bl: 11M + 5S), falling back to double
// when q = r and to infinity when q = -r.
func (p *jacobianPoint) add(q, r *jacobianPoint) {
	if q.isInfinity() {
		*p = *r
		return
	}
	if r.isInfinity() {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2 fieldVal
	z1z1.sqr(&q.z)
	z2z2.sqr(&r.z)
	u1.mul(&q.x, &z2z2)
	u2.mul(&r.x, &z1z1)
	s1.mul(&q.y, &r.z)
	s1.mul(&s1, &z2z2)
	s2.mul(&r.y, &q.z)
	s2.mul(&s2, &z1z1)
	var z3 fieldVal
	z3.add(&q.z, &r.z)
	z3.sqr(&z3)
	z3.sub(&z3, &z1z1)
	z3.sub(&z3, &z2z2)
	p.addTail(q, &u1, &u2, &s1, &s2, &z3)
}

// addAffine sets p = q + r for an affine r (madd-2007-bl: 7M + 4S),
// with the same exceptional cases as add.
func (p *jacobianPoint) addAffine(q *jacobianPoint, r *affinePoint) {
	if q.isInfinity() {
		p.setAffine(r)
		return
	}
	var z1z1, u2, s2 fieldVal
	z1z1.sqr(&q.z)
	u2.mul(&r.x, &z1z1)
	s2.mul(&r.y, &q.z)
	s2.mul(&s2, &z1z1)
	z3 := q.z
	z3.double(&z3)
	p.addTail(q, &q.x, &u2, &q.y, &s2, &z3)
}

// addTail finishes an addition from the operands brought to a common
// denominator — u = X·Z'^2 and s = Y·Z'^3 of each side — and zh, which
// times H = u2 - u1 is the result's Z.
func (p *jacobianPoint) addTail(q *jacobianPoint, u1, u2, s1, s2, zh *fieldVal) {
	var h, i, j, rr, v, t fieldVal
	h.sub(u2, u1)
	rr.sub(s2, s1)
	if h.isZero() {
		if rr.isZero() {
			p.double(q)
		} else {
			*p = jacobianPoint{}
		}
		return
	}
	rr.double(&rr)
	i.double(&h)
	i.sqr(&i)
	j.mul(&h, &i)
	v.mul(u1, &i)
	t.mul(s1, &j) // before p.x, p.y are written: u1, s1 may alias them
	t.double(&t)
	p.z.mul(zh, &h)
	p.x.sqr(&rr)
	p.x.sub(&p.x, &j)
	p.x.sub(&p.x, &v)
	p.x.sub(&p.x, &v)
	v.sub(&v, &p.x)
	v.mul(&v, &rr)
	p.y.sub(&v, &t)
}

// baseTable[i][j-1] = j·16^i·G for j = 1..15, so k·G is one mixed
// addition per nibble of k and no doubling: 64 × 15 × 64 B = 60 KB,
// built on first use.
var (
	baseTable     [64][15]affinePoint
	baseTableOnce sync.Once
)

func buildBaseTable() {
	var jac [64 * 15]jacobianPoint
	var base jacobianPoint
	base.setAffine(&generator)
	for i := 0; i < 64; i++ {
		row := jac[i*15 : (i+1)*15]
		row[0] = base
		for j := 1; j < 15; j++ {
			row[j].add(&row[j-1], &base)
		}
		base.add(&row[14], &base) // 16·base
	}
	// Montgomery's trick: one inversion for all 960 Z coordinates.
	// prefix[n] = Z_0·…·Z_(n-1); walking back, acc = (Z_0·…·Z_n)^-1.
	var prefix [64 * 15]fieldVal
	acc := fieldOne
	for n := range jac {
		prefix[n] = acc
		acc.mul(&acc, &jac[n].z)
	}
	acc.inv(&acc)
	for n := len(jac) - 1; n >= 0; n-- {
		var zInv, zInv2 fieldVal
		zInv.mul(&acc, &prefix[n])
		acc.mul(&acc, &jac[n].z)
		zInv2.sqr(&zInv)
		a := &baseTable[n/15][n%15]
		a.x.mul(&jac[n].x, &zInv2)
		zInv2.mul(&zInv2, &zInv)
		a.y.mul(&jac[n].y, &zInv2)
	}
}

// baseMult sets p = k·G.
func (p *jacobianPoint) baseMult(k *scalar) {
	baseTableOnce.Do(buildBaseTable)
	*p = jacobianPoint{}
	for i := 0; i < 64; i++ {
		if d := k[i/16] >> (4 * (i % 16)) & 15; d != 0 {
			p.addAffine(p, &baseTable[i][d-1])
		}
	}
}

// doubleMult sets p = u1·G + u2·q by Strauss's interleaving: both
// scalars are recoded to width-5 wNAF and share one doubling chain.
func (p *jacobianPoint) doubleMult(u1 *scalar, q *affinePoint, u2 *scalar) {
	baseTableOnce.Do(buildBaseTable)
	var d1, d2 [257]int8
	n1, n2 := u1.wnaf(&d1), u2.wnaf(&d2)

	// odd[i] = (2i+1)·q.
	var odd [1 << (wnafWidth - 2)]jacobianPoint
	if n2 > 0 {
		var twoQ jacobianPoint
		odd[0].setAffine(q)
		twoQ.double(&odd[0])
		for i := 1; i < len(odd); i++ {
			odd[i].add(&odd[i-1], &twoQ)
		}
	}

	*p = jacobianPoint{}
	for i := max(n1, n2) - 1; i >= 0; i-- {
		p.double(p)
		if d := d1[i]; d != 0 {
			t := baseTable[0][max(d, -d)-1]
			if d < 0 {
				t.neg(&t)
			}
			p.addAffine(p, &t)
		}
		if d := d2[i]; d != 0 {
			t := odd[max(d, -d)>>1]
			if d < 0 {
				t.neg(&t)
			}
			p.add(p, &t)
		}
	}
}
