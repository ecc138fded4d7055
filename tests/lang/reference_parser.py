"""The recursive-descent MiniF parser, kept as a test oracle.

This is the parser ``repro.lang.parser`` replaced with precedence climbing
over one operator table.  ``tests/lang/test_parser_differential.py``
checks that both build the same AST, positions included, or raise the
same error at the same position.  It descends one method per precedence
level, so it overflows Python's stack at about a hundred levels of
nesting, well before the new parser's nesting limit.

The grammar is LL(2); the only two-token lookahead is distinguishing
``x = f(...)`` (a :class:`CallAssign`) from ``x = f + ...`` (an ordinary
assignment).

Precedence (loosest to tightest): ``or`` < ``and`` < ``not`` < comparisons
< ``+ -`` < ``* / %`` < unary ``-``.  Comparisons do not chain (``a < b < c``
is a parse error), matching Fortran relational expressions.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

_COMPARISON_OPS = {
    TokenKind.EQ: "==",
    TokenKind.NE: "!=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}

_ADDITIVE_OPS = {TokenKind.PLUS: "+", TokenKind.MINUS: "-"}
_MULTIPLICATIVE_OPS = {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0

    # ------------------------------------------------------------------
    # Token stream helpers.
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} {context}, found {token.kind.value!r}",
                token.pos,
            )
        return self._advance()

    # ------------------------------------------------------------------
    # Top level.
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse a complete program (global decls, init blocks, procedures)."""
        global_names: List[str] = []
        inits: List[ast.GlobalInit] = []
        procedures: List[ast.Procedure] = []
        while not self._check(TokenKind.EOF):
            token = self._peek()
            if token.kind is TokenKind.GLOBAL:
                global_names.extend(self._parse_global_decl())
            elif token.kind is TokenKind.INIT:
                inits.extend(self._parse_init_block())
            elif token.kind is TokenKind.PROC:
                procedures.append(self._parse_procedure())
            else:
                raise ParseError(
                    "expected 'global', 'init', or 'proc' at top level, "
                    f"found {token.kind.value!r}",
                    token.pos,
                )
        return ast.Program(global_names, inits, procedures)

    def _parse_global_decl(self) -> List[str]:
        self._expect(TokenKind.GLOBAL, "to begin a global declaration")
        names = [self._expect(TokenKind.IDENT, "in global declaration").value]
        while self._match(TokenKind.COMMA):
            names.append(self._expect(TokenKind.IDENT, "in global declaration").value)
        self._expect(TokenKind.SEMI, "after global declaration")
        return [str(name) for name in names]

    def _parse_init_block(self) -> List[ast.GlobalInit]:
        self._expect(TokenKind.INIT, "to begin an init block")
        self._expect(TokenKind.LBRACE, "after 'init'")
        entries: List[ast.GlobalInit] = []
        while not self._check(TokenKind.RBRACE):
            name_tok = self._expect(TokenKind.IDENT, "in init block")
            self._expect(TokenKind.ASSIGN, "in init block entry")
            value = self._parse_signed_literal()
            self._expect(TokenKind.SEMI, "after init block entry")
            entries.append(ast.GlobalInit(str(name_tok.value), value, name_tok.pos))
        self._expect(TokenKind.RBRACE, "to close the init block")
        return entries

    def _parse_signed_literal(self) -> ast.Value:
        negate = self._match(TokenKind.MINUS) is not None
        token = self._peek()
        if token.kind is TokenKind.INT or token.kind is TokenKind.FLOAT:
            self._advance()
            value = token.value
            return -value if negate else value
        raise ParseError("init block entries must be literal constants", token.pos)

    def _parse_procedure(self) -> ast.Procedure:
        proc_tok = self._expect(TokenKind.PROC, "to begin a procedure")
        name = str(self._expect(TokenKind.IDENT, "as procedure name").value)
        self._expect(TokenKind.LPAREN, "after procedure name")
        formals: List[str] = []
        if not self._check(TokenKind.RPAREN):
            formals.append(str(self._expect(TokenKind.IDENT, "as formal parameter").value))
            while self._match(TokenKind.COMMA):
                formals.append(
                    str(self._expect(TokenKind.IDENT, "as formal parameter").value)
                )
        self._expect(TokenKind.RPAREN, "after formal parameter list")
        body = self._parse_block()
        return ast.Procedure(name, formals, body, proc_tok.pos)

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        open_tok = self._expect(TokenKind.LBRACE, "to begin a block")
        stmts: List[ast.Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError("unterminated block", open_tok.pos)
            stmts.append(self._parse_statement())
        self._expect(TokenKind.RBRACE, "to close the block")
        return ast.Block(stmts, open_tok.pos)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.LBRACE:
            return self._parse_block()
        if token.kind is TokenKind.IF:
            return self._parse_if()
        if token.kind is TokenKind.WHILE:
            return self._parse_while()
        if token.kind is TokenKind.CALL:
            return self._parse_call_stmt()
        if token.kind is TokenKind.RETURN:
            return self._parse_return()
        if token.kind is TokenKind.PRINT:
            return self._parse_print()
        if token.kind is TokenKind.IDENT:
            return self._parse_assignment()
        raise ParseError(f"expected a statement, found {token.kind.value!r}", token.pos)

    def _parse_if(self) -> ast.If:
        if_tok = self._advance()
        self._expect(TokenKind.LPAREN, "after 'if'")
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after if condition")
        then_block = self._as_block(self._parse_statement())
        else_block: Optional[ast.Block] = None
        if self._match(TokenKind.ELSE):
            else_block = self._as_block(self._parse_statement())
        return ast.If(cond, then_block, else_block, if_tok.pos)

    def _parse_while(self) -> ast.While:
        while_tok = self._advance()
        self._expect(TokenKind.LPAREN, "after 'while'")
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after while condition")
        body = self._as_block(self._parse_statement())
        return ast.While(cond, body, while_tok.pos)

    @staticmethod
    def _as_block(stmt: ast.Stmt) -> ast.Block:
        if isinstance(stmt, ast.Block):
            return stmt
        return ast.Block([stmt], getattr(stmt, "pos", None))

    def _parse_call_stmt(self) -> ast.CallStmt:
        call_tok = self._advance()
        name = str(self._expect(TokenKind.IDENT, "as callee name").value)
        args = self._parse_argument_list()
        self._expect(TokenKind.SEMI, "after call statement")
        return ast.CallStmt(name, args, call_tok.pos)

    def _parse_return(self) -> ast.Return:
        ret_tok = self._advance()
        if self._match(TokenKind.SEMI):
            return ast.Return(None, ret_tok.pos)
        expr = self._parse_expression()
        self._expect(TokenKind.SEMI, "after return expression")
        return ast.Return(expr, ret_tok.pos)

    def _parse_print(self) -> ast.Print:
        print_tok = self._advance()
        self._expect(TokenKind.LPAREN, "after 'print'")
        expr = self._parse_expression()
        self._expect(TokenKind.RPAREN, "after print expression")
        self._expect(TokenKind.SEMI, "after print statement")
        return ast.Print(expr, print_tok.pos)

    def _parse_assignment(self) -> ast.Stmt:
        target_tok = self._advance()
        target = str(target_tok.value)
        if self._check(TokenKind.LBRACKET):
            self._advance()
            index = self._parse_expression()
            self._expect(TokenKind.RBRACKET, "to close array subscript")
            self._expect(TokenKind.ASSIGN, "in array element assignment")
            expr = self._parse_expression()
            self._expect(TokenKind.SEMI, "after assignment")
            return ast.AssignIndex(target, index, expr, target_tok.pos)
        self._expect(TokenKind.ASSIGN, "in assignment")
        # Two-token lookahead: `x = f(` starts a call-assignment.
        if self._check(TokenKind.IDENT) and self._peek(1).kind is TokenKind.LPAREN:
            callee = str(self._advance().value)
            args = self._parse_argument_list()
            self._expect(
                TokenKind.SEMI,
                "after call assignment (calls may only be the entire right-hand side)",
            )
            return ast.CallAssign(target, callee, args, target_tok.pos)
        expr = self._parse_expression()
        self._expect(TokenKind.SEMI, "after assignment")
        return ast.Assign(target, expr, target_tok.pos)

    def _parse_argument_list(self) -> List[ast.Expr]:
        self._expect(TokenKind.LPAREN, "to begin argument list")
        args: List[ast.Expr] = []
        if not self._check(TokenKind.RPAREN):
            args.append(self._parse_expression())
            while self._match(TokenKind.COMMA):
                args.append(self._parse_expression())
        self._expect(TokenKind.RPAREN, "to close argument list")
        return args

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while True:
            op_tok = self._match(TokenKind.OR)
            if op_tok is None:
                return left
            right = self._parse_and()
            left = ast.Binary("or", left, right, op_tok.pos)

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while True:
            op_tok = self._match(TokenKind.AND)
            if op_tok is None:
                return left
            right = self._parse_not()
            left = ast.Binary("and", left, right, op_tok.pos)

    def _parse_not(self) -> ast.Expr:
        not_tok = self._match(TokenKind.NOT)
        if not_tok is not None:
            operand = self._parse_not()
            return ast.Unary("not", operand, not_tok.pos)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        kind = self._peek().kind
        if kind in _COMPARISON_OPS:
            op_tok = self._advance()
            right = self._parse_additive()
            result = ast.Binary(_COMPARISON_OPS[kind], left, right, op_tok.pos)
            if self._peek().kind in _COMPARISON_OPS:
                raise ParseError("comparisons do not chain", self._peek().pos)
            return result
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().kind in _ADDITIVE_OPS:
            op_tok = self._advance()
            right = self._parse_multiplicative()
            left = ast.Binary(_ADDITIVE_OPS[op_tok.kind], left, right, op_tok.pos)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().kind in _MULTIPLICATIVE_OPS:
            op_tok = self._advance()
            right = self._parse_unary()
            left = ast.Binary(_MULTIPLICATIVE_OPS[op_tok.kind], left, right, op_tok.pos)
        return left

    def _parse_unary(self) -> ast.Expr:
        minus_tok = self._match(TokenKind.MINUS)
        if minus_tok is not None:
            operand = self._parse_unary()
            return ast.Unary("-", operand, minus_tok.pos)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT:
            self._advance()
            return ast.IntLit(int(token.value), token.pos)
        if token.kind is TokenKind.FLOAT:
            self._advance()
            return ast.FloatLit(float(token.value), token.pos)
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._check(TokenKind.LPAREN):
                raise ParseError(
                    "call expressions may only appear as the entire right-hand "
                    "side of an assignment",
                    token.pos,
                )
            if self._check(TokenKind.LBRACKET):
                self._advance()
                index = self._parse_expression()
                self._expect(TokenKind.RBRACKET, "to close array subscript")
                return ast.Index(str(token.value), index, token.pos)
            return ast.Var(str(token.value), token.pos)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expression()
            self._expect(TokenKind.RPAREN, "to close parenthesized expression")
            return expr
        raise ParseError(f"expected an expression, found {token.kind.value!r}", token.pos)


def parse_program(source: str) -> ast.Program:
    """Lex and parse ``source`` into a :class:`repro.lang.ast.Program`."""
    parser = Parser(tokenize(source))
    return parser.parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Lex and parse ``source`` as a single expression (testing helper)."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expression()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(
            f"unexpected trailing input {trailing.kind.value!r}", trailing.pos
        )
    return expr
