"""Class numbers and split-prime counts from the benchmark's own field tables.

These are the benchmark's oracles for the catalogue and splitting
workloads.  They share no code with cmtk's arithmetic: F_{p^k} is built
here as F_p[x]/(W) for the first primitive W found by trial.

* CurveCounter: h_K = L(1) by table-driven point counting.  F_q =
  F_p[y]/(modulus) is embedded through a root of cmtk's recorded
  modulus, and every point count is a loop over addition and
  multiplication tables.  Only radicands whose largest extension field
  F_{q^g} has at most MAX_FIELD elements are supported; the catalogue
  surfaces stay far below that.
* SplitCounter: the number of monic primes of degree t over a prime
  field that split in k(sqrt m_1, ..., sqrt m_r), counted by their roots
  in F_{p^t} instead of by enumerating primes.
"""

MAX_FIELD = 729


def primitive_powers(p, k):
    """Codes of x^0..x^(p^k - 2) modulo the first monic W of degree k where x is primitive.

    An element is coded as the base-p number of its coefficients, the
    constant coefficient in the lowest digit.
    """
    n, one = p**k, [1] + [0] * (k - 1)
    for lower in range(n):
        w = [(lower // p**j) % p for j in range(k)]  # W = x^k + sum w_j x^j
        if w[0] == 0:
            continue  # x divides W, so it is no unit
        powers, v = [], one
        for _ in range(n - 1):
            powers.append(sum(c * p**j for j, c in enumerate(v)))
            top = v[-1]
            v = [0] + v[:-1]
            v = [(c - top * w[j]) % p for j, c in enumerate(v)]
            if v == one:
                break  # the order of x is reached
        if v == one and len(powers) == n - 1 and len(set(powers)) == n - 1:
            return powers
    raise AssertionError(f"no primitive element found for F_{n}")


class _Field:
    """F_{p^k} with elements coded 0..p^k-1 as base-p digit strings."""

    def __init__(self, p, k):
        self.p, self.k, self.n = p, k, p**k
        if self.n > MAX_FIELD:
            raise ValueError(f"F_{self.n} exceeds the oracle's table limit")
        self.exp = primitive_powers(p, k)
        self.log = [0] * self.n
        for i, v in enumerate(self.exp):
            self.log[v] = i
        n = self.n
        self.add = [[self._add(a, b) for b in range(n)] for a in range(n)]
        order = n - 1
        self.mul = [
            [0 if a == 0 or b == 0 else self.exp[(self.log[a] + self.log[b]) % order]
             for b in range(n)]
            for a in range(n)
        ]
        self.square = [v != 0 and self.log[v] % 2 == 0 for v in range(n)]

    def _add(self, a, b):
        p, out, place = self.p, 0, 1
        while a or b:
            out += ((a % p + b % p) % p) * place
            a //= p
            b //= p
            place *= p
        return out

    def power(self, a, e):
        if a == 0:
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.n - 1)]


class CurveCounter:
    """h_K for radicands over one F_q, with the extension fields cached."""

    def __init__(self, p, e, modulus=None):
        self.p, self.e, self.q = p, e, p**e
        self.modulus = tuple(modulus) if modulus is not None else None
        self._fields = {}

    def _field(self, i):
        """F_{q^i} plus the images of the q coefficient codes inside it."""
        got = self._fields.get(i)
        if got is None:
            L = _Field(self.p, self.e * i)
            if self.e == 1:
                image = list(range(self.p))
            else:
                root = next(
                    r for r in range(L.n) if self._evaluate(L, self.modulus, r) == 0
                )
                image = []
                for code in range(self.q):
                    acc, digits = 0, code
                    for j in range(self.e):
                        term = L.mul[digits % self.p][L.power(root, j)]
                        acc = L.add[acc][term]
                        digits //= self.p
                    image.append(acc)
            got = (L, image)
            self._fields[i] = got
        return got

    @staticmethod
    def _evaluate(L, coeffs, t):
        acc = 0
        for c in reversed(coeffs):
            acc = L.add[L.mul[acc][t]][c]
        return acc

    def points(self, coeffs, i):
        """Points over F_{q^i} of the smooth model of y^2 = m(x)."""
        L, image = self._field(i)
        mc = [image[c] for c in coeffs]
        add, mul, square = L.add, L.mul, L.square
        affine = 0
        for t in range(L.n):
            acc = 0
            for c in reversed(mc):
                acc = add[mul[acc][t]][c]
            if acc == 0:
                affine += 1
            elif square[acc]:
                affine += 2
        degree = len(coeffs) - 1
        if degree % 2:
            return affine + 1  # one ramified point at infinity
        return affine + (2 if i % 2 == 0 else 0)  # inert: degree-2 place

    def class_number(self, coeffs):
        """h_K = L(1) from N_1..N_g, Newton's identities and the functional equation."""
        degree = len(coeffs) - 1
        g = (degree - 1) // 2 if degree % 2 else degree // 2 - 1
        if g == 0:
            return 1
        q = self.q
        s = [0] + [q**i + 1 - self.points(coeffs, i) for i in range(1, g + 1)]
        a = [1] + [0] * (2 * g)
        for k in range(1, g + 1):
            acc = sum(s[i] * a[k - i] for i in range(1, k + 1))
            if acc % k:
                raise AssertionError("Newton identity gave a non-integer")
            a[k] = -acc // k
        for k in range(g):
            a[2 * g - k] = q ** (g - k) * a[k]
        return sum(a)


class SplitCounter:
    """Degree-t primes of F_p[T] split in k(sqrt m_1, ..., sqrt m_r).

    A monic prime P of degree t has t distinct roots in F_{p^t}, each of
    degree exactly t, and chi(m, P) = +1 iff m(x) is a nonzero square in
    F_{p^t} at a root x.  So the count is the number of x of degree
    exactly t at which every m_i(x) is a nonzero square, divided by t.
    F_{p^t} is kept as its table of powers of a primitive element g: a
    product is a sum of logarithms, adding a constant of F_p changes only
    the lowest base-p digit, and g^k lies in the subfield F_{p^d} iff
    (p^t - 1)/(p^d - 1) divides k.
    """

    def __init__(self, p):
        self.p = p
        self._fields = {}

    def _field(self, t):
        """(exp, log, codes of the elements of degree exactly t) for F_{p^t}."""
        got = self._fields.get(t)
        if got is None:
            p = self.p
            exp = primitive_powers(p, t)
            log = [0] * (len(exp) + 1)
            for i, v in enumerate(exp):
                log[v] = i
            steps = [(p**t - 1) // (p**d - 1) for d in range(1, t) if t % d == 0]
            exact = [v for i, v in enumerate(exp) if all(i % s for s in steps)]
            if t == 1:
                exact.append(0)
            got = (exp, log, exact)
            self._fields[t] = got
        return got

    def count(self, radicands, t):
        """Split primes of degree t; radicands are coefficient tuples over F_p, constant first."""
        p = self.p
        exp, log, exact = self._field(t)
        order = len(exp)
        roots = 0
        for x in exact:
            lx = log[x]
            for m in radicands:
                acc = 0
                for c in reversed(m):
                    acc = exp[(log[acc] + lx) % order] if acc and x else 0
                    low = acc % p
                    acc += (low + c) % p - low
                if acc == 0 or log[acc] % 2:
                    break
            else:
                roots += 1
        if roots % t:
            raise AssertionError(f"{roots} roots of degree {t} do not make whole primes")
        return roots // t
